package serve

// Fuzzing for the untrusted request decoders: whatever the body bytes,
// DecodeClassifyRequest and DecodeIngestRequest must either return a
// validated request or an error — never panic, and never accept a
// request that fails its own Validate. Additional seed inputs live in
// testdata/fuzz/FuzzDecodeClassifyRequest and
// testdata/fuzz/FuzzDecodeIngestRequest.

import (
	"bytes"
	"testing"

	"tmark/internal/stream"
)

func FuzzDecodeClassifyRequest(f *testing.F) {
	seeds := []string{
		`{"seeds":[0,1,2]}`,
		// "dataset" (the retired spelling of "model") is an unknown
		// field: this seed and the last one exercise its rejection.
		`{"seeds":[5],"dataset":"dblp","ica":true,"scores":true}`,
		`{"seeds":[1],"alpha":0.8,"gamma":0.6,"lambda":0.7,"epsilon":1e-8,"max_iterations":100}`,
		`{"seeds":[3,3,3],"top_nodes":5,"top_links":2}`,
		`{"seeds":[1],"quality":"fast"}`,
		`{"seeds":[1],"quality":"accelerated"}`,
		`{"seeds":[1],"quality":"exact"}`,
		`{"seeds":[1],"quality":""}`,
		`{"seeds":[1],"quality":"FAST"}`,
		`{"seeds":[1],"quality":"fast "}`,
		`{"seeds":[1],"quality":"fast"}`,
		`{"seeds":[1],"quality":42}`,
		`{"seeds":[]}`,
		`{"seeds":[-1]}`,
		`{"seeds":[1],"alpha":1e999}`,
		`{"seeds":[1],"unknown":"field"}`,
		`{"seeds":[1]} trailing`,
		`{`,
		``,
		`null`,
		`[1,2,3]`,
		`{"seeds":[9007199254740993]}`,
		"{\"seeds\":[1],\"dataset\":\"\\u0000\xff\"}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeClassifyRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatalf("error %v returned alongside a request", err)
			}
			return
		}
		if req == nil {
			t.Fatalf("nil request without error")
		}
		// Anything the decoder accepts must satisfy its own invariants.
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails validation: %v", err)
		}
		if len(req.Seeds) == 0 {
			t.Fatalf("decoded request has no seeds")
		}
		for _, s := range req.Seeds {
			if s < 0 {
				t.Fatalf("decoded request kept negative seed %d", s)
			}
		}
	})
}

func FuzzDecodeIngestRequest(f *testing.F) {
	seeds := []string{
		`{"model":"dblp","deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]}`,
		`{"deltas":[{"op":"update","from":3,"to":4,"relation":1,"weight":0.5}]}`,
		`{"deltas":[{"op":"remove","from":3,"to":4,"relation":1}]}`,
		`{"deltas":[{"op":"remove","from":3,"to":4,"relation":1,"weight":1}]}`,
		`{"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":-1}]}`,
		`{"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1e999}]}`,
		`{"deltas":[{"op":"set","from":0,"to":1,"relation":0,"weight":1}]}`,
		`{"deltas":[{"op":"add","from":-9007199254740993,"to":1,"relation":0,"weight":1}]}`,
		`{"deltas":[]}`,
		`{"deltas":null}`,
		`{"model":42,"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]}`,
		`{"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}],"unknown":true}`,
		`{"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1}]} extra`,
		`{"deltas":[{"op":"add","from":0,"to":1,"relation":0,"weight":1},{"op":"add"}]}`,
		`{`,
		``,
		`null`,
		`[{"op":"add"}]`,
		"{\"model\":\"\\u0000\xff\",\"deltas\":[{\"op\":\"add\",\"from\":0,\"to\":1,\"relation\":0,\"weight\":1}]}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeIngestRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatalf("error %v returned alongside a request", err)
			}
			return
		}
		if req == nil {
			t.Fatalf("nil request without error")
		}
		// Anything the decoder accepts must satisfy its own invariants.
		if err := req.Validate(); err != nil {
			t.Fatalf("decoded request fails validation: %v", err)
		}
		if len(req.Deltas) == 0 || len(req.Deltas) > stream.MaxDeltas {
			t.Fatalf("decoded request kept %d deltas", len(req.Deltas))
		}
		for _, d := range req.Deltas {
			if err := d.Validate(); err != nil {
				t.Fatalf("decoded request kept invalid delta: %v", err)
			}
		}
	})
}
