package service

// The verify parser's contract (verifyparse.go): correctness never
// depends on fastParseLine, because whatever it accepts encoding/json
// accepts too and decodes to the same fields. FuzzVerifyLine checks that
// over arbitrary bytes.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// verifyLineSeeds are request lines of the shapes the verify routes see:
// trustbench's bodies (chain_pem with a user agent and named stores,
// chain_der fan-outs), the batch tests' lines, and near misses of the
// plain shape.
var verifyLineSeeds = []string{
	`{"chain_pem":"-----BEGIN CERTIFICATE-----\nMIIBszCCAVmgAwIBAgIIEjRWeJq83v8wCgYIKoZIzj0EAwIw\n-----END CERTIFICATE-----\n","user_agent":"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/85.0.4183.102 Safari/537.36 Edg/85.0.564.51","stores":["NSS","Debian"],"at":"2019-03-07T11:42:05Z"}`,
	`{"chain_der":["MIIBszCCAVmgAwIBAgIIEjRWeJq83v8wCgYIKoZIzj0EAwIw","MIIB"]}`,
	`{"chain_der":["MIIBszCCAVmgAwIBAgIIEjRWeJq83v8w"],"stores":["NSS"],"at":"2020-11-15"}`,
	`{"chain_pem":"x","stores":["NSS"]}`,
	`{"chain_pem":"","purpose":"server-auth","dns_name":"shop.example.test"}`,
	`{"stores":"NSS"}`,
	`{"chain_pem":"x"} garbage`,
	`{this is not json`,
	" {\t\"at\" : \"2020-11-15\" ,\r\n\"stores\": [ ] }\n",
	`{"user_agent":"Mozilla/5.0 é","stores":["NSS"]}`,
	`{"chain_pem":"a\/b\"c\\d\te"}`,
	"{\"user_agent\":\"tab\there\"}",
	"{\"at\":\"caf\xc3\xa9\"}",
	"{\"at\":\"\xff\"}",
	`{}`,
}

func FuzzVerifyLine(f *testing.F) {
	for _, s := range verifyLineSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fields lineFields
		var pemBuf []byte
		if !fastParseLine(line, &fields, &pemBuf) {
			return
		}
		var req verifyRequest
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatalf("fast path accepts %q, encoding/json rejects it: %v", line, err)
		}
		same := func(name string, got []byte, want string) {
			if string(got) != want {
				t.Errorf("%q: %s = %q, encoding/json decodes %q", line, name, got, want)
			}
		}
		sameList := func(name string, got [][]byte, want []string) {
			if len(got) != len(want) {
				t.Errorf("%q: %s has %d elements, encoding/json decodes %d", line, name, len(got), len(want))
				return
			}
			for i := range got {
				if !bytes.Equal(got[i], []byte(want[i])) {
					t.Errorf("%q: %s[%d] = %q, encoding/json decodes %q", line, name, i, got[i], want[i])
				}
			}
		}
		same("chain_pem", fields.chainPEM, req.ChainPEM)
		sameList("chain_der", fields.chainDER, req.ChainDER)
		sameList("stores", fields.stores, req.Stores)
		same("user_agent", fields.ua, req.UserAgent)
		same("at", fields.at, req.At)
		same("purpose", fields.purpose, req.Purpose)
		same("dns_name", fields.dnsName, req.DNSName)
	})
}
