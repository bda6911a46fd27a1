package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// elapsedField matches the one wall-clock field in every response body.
var elapsedField = regexp.MustCompile(`,"elapsed_ms":[-+0-9.eE]+`)

// wireDigest runs one request and hashes what a client sees: the status
// code, the Content-Type header, and the body with elapsed_ms removed. An
// NDJSON body hashes its per-index lines sorted by index (they arrive in
// completion order), then its terminal line.
func wireDigest(t *testing.T, method, url, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%s\n", resp.StatusCode, resp.Header.Get("Content-Type"))
	if resp.Header.Get("Content-Type") != "application/x-ndjson" {
		h.Write(elapsedField.ReplaceAll(raw, nil))
		return hex.EncodeToString(h.Sum(nil))
	}
	indexed := map[int][]byte{}
	var terminal []byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ln struct {
			Index *int `json:"index"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("undecodable line %q: %v", sc.Text(), err)
		}
		line := append([]byte(nil), sc.Bytes()...)
		if ln.Index == nil {
			terminal = elapsedField.ReplaceAll(line, nil)
			continue
		}
		indexed[*ln.Index] = line
	}
	idx := make([]int, 0, len(indexed))
	for i := range indexed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		h.Write(indexed[i])
		h.Write([]byte{'\n'})
	}
	h.Write(terminal)
	return hex.EncodeToString(h.Sum(nil))
}

// TestWireGolden pins spantreed's response bytes across commits, for a
// replica and for a router in front of one replica: registration, the
// NDJSON stream for the phase and exact samplers on a fixed n=32 graph,
// /v1/sample with trees, /v1/audit on a cycle, and the stream's error
// statuses. The audit draws 64 trees of an 8-cycle so every term of its TV
// sum is a multiple of 1/64: the sum is exact in any order, and the
// audit's map-ordered summation cannot move the last digit. A refactor of the HTTP layer keeps every digest; a change that
// moves wire bytes on purpose regenerates them and says so.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name, method, path, body string
		replica, router          string
	}{
		{"register n=32", "POST", "/v1/graphs", `{"key":"g32","family":"expander","n":32,"seed":7}`,
			"cfbdd3690dffe7cd3eb3f5e3ccdd97a9f46aa8f754409b715e6c3e16742e6cc1",
			"cfbdd3690dffe7cd3eb3f5e3ccdd97a9f46aa8f754409b715e6c3e16742e6cc1"},
		{"register cycle", "POST", "/v1/graphs", `{"key":"cyc","family":"cycle","n":8,"seed":1}`,
			"37f4e87ffa37f48912885120b798ea7a435e1d9bebfe25f3132d8177575646de",
			"37f4e87ffa37f48912885120b798ea7a435e1d9bebfe25f3132d8177575646de"},
		{"stream phase", "POST", "/v1/graphs/g32/stream", `{"k":6,"sampler":"phase","seed_base":5}`,
			"8035de367229b21ea85fdee7e6fa89fedba15fe79365b9cba493b3ffe6389aab",
			"8035de367229b21ea85fdee7e6fa89fedba15fe79365b9cba493b3ffe6389aab"},
		{"stream exact", "POST", "/v1/graphs/g32/stream", `{"k":12,"sampler":"exact","seed_base":5,"start_index":3}`,
			"4ecba9a02c3ed51e25c824f96def3ccc676dc71e9c0e4417e7e2fcd9d3002434",
			"4ecba9a02c3ed51e25c824f96def3ccc676dc71e9c0e4417e7e2fcd9d3002434"},
		{"sample trees", "POST", "/v1/sample", `{"graph":"g32","k":6,"sampler":"exact","seed_base":3,"include_trees":true}`,
			"3b52bc5d27a659f911ff043c5d5c9f9c0c24e296c373aab669ca31955e463388",
			"3b52bc5d27a659f911ff043c5d5c9f9c0c24e296c373aab669ca31955e463388"},
		{"audit cycle", "POST", "/v1/audit", `{"graph":"cyc","k":64,"sampler":"exact","seed_base":2}`,
			"95a7b257cc63cde3e6919a5b18cfd7a8c7c140a380977987add31cc83f89a878",
			"36bf2b6816a6f33c5a6543103ab383056bd872184950d19ac3db84cbb871e3ce"},
		{"stream unknown graph", "POST", "/v1/graphs/nope/stream", `{"k":2,"sampler":"wilson","seed_base":1}`,
			"fa7ae7bc53e34303c122021df05f134dbd5918175b3228cbf1c2d9ee23433d7f",
			"fa7ae7bc53e34303c122021df05f134dbd5918175b3228cbf1c2d9ee23433d7f"},
		{"stream bad sampler", "POST", "/v1/graphs/g32/stream", `{"k":2,"sampler":"nope","seed_base":1}`,
			"b580889e2965b56799e0b5d15183f18d8b65524201cf2c1f266c5b5f45b0e08d",
			"b580889e2965b56799e0b5d15183f18d8b65524201cf2c1f266c5b5f45b0e08d"},
	}
	replica, _ := newReplica(t, 2)
	routerTS, _ := newTestRouter(t, func() *httptest.Server { ts, _ := newReplica(t, 2); return ts }())
	for _, mode := range []struct {
		name string
		url  string
	}{{"replica", replica.URL}, {"router", routerTS.URL}} {
		for _, tc := range cases {
			want := tc.replica
			if mode.name == "router" {
				want = tc.router
			}
			if got := wireDigest(t, tc.method, mode.url+tc.path, tc.body); got != want {
				t.Errorf("%s %s: digest %s, want %s", mode.name, tc.name, got, want)
			}
		}
	}
}
