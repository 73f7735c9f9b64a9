package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"

	"intellinoc/internal/core"
	"intellinoc/internal/experiments"
)

// FuzzSubmitAdmission drives POST /v1/jobs with arbitrary bodies. The
// handler must never panic or answer 5xx, and a body that the decoder or
// validator rejects must get a 400 and execute nothing. The oracle
// decodes the body exactly as the handler does and runs validateSpec on
// every job. Run with go test -fuzz FuzzSubmitAdmission ./internal/service.
func FuzzSubmitAdmission(f *testing.F) {
	f.Add([]byte(sampledBody(f)))
	suite, err := experiments.NewSuite(experiments.SuiteOptions{
		Sim: core.SimConfig{Seed: 1}, Packets: 15000, Quick: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	quick, err := json.Marshal(submitRequest{Jobs: []submitJob{{Spec: suite.Experiments[0].Specs[0].Spec}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)

	f.Fuzz(func(t *testing.T, body []byte) {
		// Small limits keep any accepted job short; Close cancels it.
		s := newTestServer(t, Config{Workers: 1, MaxPackets: 15000, MaxMeshDim: 8, MaxSpecsPerRequest: 4})
		h := s.Handler()

		var req submitRequest
		dec := json.NewDecoder(io.LimitReader(bytes.NewReader(body), 16<<20))
		dec.DisallowUnknownFields()
		rejected := dec.Decode(&req) != nil || len(req.Jobs) == 0 || len(req.Jobs) > s.cfg.MaxSpecsPerRequest
		for _, j := range req.Jobs {
			if !rejected && s.validateSpec(j.Spec) != nil {
				rejected = true
			}
		}

		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rr.Code >= 500 {
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
		if !rejected {
			return
		}
		if rr.Code != 400 {
			t.Fatalf("validator rejects the body but the handler answered %d: %s", rr.Code, rr.Body.String())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := metric(t, h, "intellinocd_jobs_executed_total"); got != 0 {
			t.Fatalf("rejected body executed %v job(s)", got)
		}
	})
}
