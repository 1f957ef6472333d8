package service

// FuzzJobSpecDecode hammers the submission path's data plane: any byte
// sequence a client can POST must either fail decoding/validation cleanly
// or build a runnable config — never panic. CI runs this briefly with
// -fuzz as a smoke test; the seed corpus alone runs under plain `go test`.

import (
	"encoding/json"
	"testing"
)

func FuzzJobSpecDecode(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"protocol":"sf","n":100,"h":4,"sources1":1,"delta":0.2}`,
		`{"protocol":"ssf","n":64,"h":8,"sources1":2,"delta":0.1,"seeds":[1,2,3]}`,
		`{"protocol":"majority","n":1000,"h":4,"sources1":10,"backend":"counts","max_rounds":50}`,
		`{"protocol":"sf","n":100,"h":4,"sources1":1,"p01":0.1,"p10":0.2}`,
		`{"protocol":"voter","n":100,"h":4,"sources1":1,"delta":0.2,` +
			`"faults":[{"kind":"corrupt","round":3,"fraction":0.5,"mode":"wrong"},` +
			`{"kind":"crash","window_lo":2,"window_hi":9,"fraction":1,"duration":4},` +
			`{"kind":"noise","round":5,"delta":0.3},` +
			`{"kind":"drift","round":7,"delta":0.2,"drift_rounds":3}]}`,
		`{"protocol":"sf","faults":[{"kind":"meteor"}]}`,
		`{"protocol":"sf","n":-5,"h":0,"delta":-3e308}`,
		`{"protocol":"trustbit","n":100,"h":4,"sources1":1,"delta":0.24,` +
			`"faults":[{"kind":"churn","round":1,"fraction":1e-9}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		spec.normalize()
		_ = spec.shape()
		cfg, err := spec.build()
		if err != nil {
			return
		}
		// A spec that builds must have produced a config the engine accepts.
		if err := cfg.Validate(); err != nil {
			t.Fatalf("build succeeded but Validate failed: %v\nspec: %s", err, data)
		}
	})
}
