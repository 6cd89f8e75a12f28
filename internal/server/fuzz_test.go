package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// retiredFields are request fields of earlier wire versions; the
// strict decoder must refuse a body that names any of them.
var retiredFields = []string{"partitions", "parallelism", "magic"}

// FuzzDecodeRequest feeds arbitrary bodies through decode into the
// query and facts requests: decode never panics, every refusal is a
// 400 invalid_argument, and a JSON object naming a retired field is
// refused.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"program": "tc", "goal": "tc(a, X)", "seed": 7, "timeout": "1s"}`,
		`{"source": "p(a).", "predicates": ["p"], "max_tuples": 5, "partial": true}`,
		`{"facts": "e(a, b).", "inserts": "", "deletes": "e(b, c)."}`,
		`{"goal": "tc(a, X)", "magic": false}`,
		`{"partitions": 4}`,
		`{"parallelism": 2, "facts": "e(a, b)."}`,
		`{"seed": -1}`,
		`{"max_derivations": "x"}`,
		`null`,
		`[]`,
		``,
		`{"goal": "tc(a, X)"} trailing`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fields map[string]json.RawMessage
		retired := ""
		if json.Unmarshal(body, &fields) == nil {
			for _, name := range retiredFields {
				if _, ok := fields[name]; ok {
					retired = name
				}
			}
		}
		for _, v := range []any{&queryRequest{}, &factsRequest{}} {
			e := decode(httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)), v)
			if e == nil {
				if retired != "" {
					t.Fatalf("%T accepted retired field %q in %q", v, retired, body)
				}
				continue
			}
			if e.status != 400 || e.code != "invalid_argument" {
				t.Fatalf("%T refused %q with %d %s, want 400 invalid_argument", v, body, e.status, e.code)
			}
		}
	})
}
