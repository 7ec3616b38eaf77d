package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ixplens/internal/analysis"
	"ixplens/internal/obs"
	"ixplens/internal/snapshot"
	"ixplens/internal/supervise"
	"ixplens/internal/vfs"
)

// TestDegradedServing: with a quarantined week the server reports
// degraded health naming the hole, refuses the week with 422, flags it
// in the inventory, and serves /churn with an explicit gap row instead
// of failing the whole series.
func TestDegradedServing(t *testing.T) {
	dir := campaign(t, 4, 2000)
	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	weeks := store.Weeks()
	bad := weeks[1]
	store.SetQuarantined([]int{bad})

	s := New(store, Config{}, obs.NewRegistry())
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/healthz")
	if code != 200 {
		t.Fatalf("healthz: %d %s", code, body)
	}
	var health struct {
		Status      string `json:"status"`
		Weeks       int    `json:"weeks"`
		Quarantined []int  `json:"quarantined"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Weeks != 4 {
		t.Fatalf("health: %+v", health)
	}
	if len(health.Quarantined) != 1 || health.Quarantined[0] != bad {
		t.Fatalf("quarantined list: %v", health.Quarantined)
	}

	if code, body := get(fmt.Sprintf("/week/%d", bad)); code != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined week answered %d %s, want 422", code, body)
	}
	if code, _ := get(fmt.Sprintf("/week/%d", weeks[0])); code != 200 {
		t.Fatalf("healthy week answered %d", code)
	}
	if _, err := store.Load(context.Background(), bad); !errors.Is(err, ErrQuarantinedWeek) {
		t.Fatalf("Load(quarantined) = %v, want ErrQuarantinedWeek", err)
	}

	code, body = get("/weeks")
	if code != 200 {
		t.Fatalf("weeks: %d", code)
	}
	var infos []WeekInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	for i, info := range infos {
		if want := i == 1; info.Quarantined != want {
			t.Fatalf("week %d quarantined=%v, want %v", info.Week, info.Quarantined, want)
		}
	}

	code, body = get("/churn")
	if code != 200 {
		t.Fatalf("churn on degraded campaign: %d %s", code, body)
	}
	var series []ChurnWeek
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series length %d, want 4 (gaps hold their place)", len(series))
	}
	gapRow := series[1]
	if !gapRow.Gap || gapRow.Week != bad {
		t.Fatalf("gap row: %+v", gapRow)
	}
	if gapRow.TotalBytes != 0 || gapRow.IPs != [3]int{} || gapRow.Streak != 0 {
		t.Fatalf("gap row not zeroed: %+v", gapRow)
	}
	// Observed-week accounting: 1 before the gap, unchanged across it,
	// then advancing again; the streak restarts after the gap.
	wantObs := []int{1, 1, 2, 3}
	wantStreak := []int{1, 0, 1, 2}
	for i, row := range series {
		if row.Gap != (i == 1) {
			t.Fatalf("row %d gap=%v", i, row.Gap)
		}
		if row.ObservedWeeks != wantObs[i] || row.Streak != wantStreak[i] {
			t.Fatalf("row %d observed=%d streak=%d, want %d/%d",
				i, row.ObservedWeeks, row.Streak, wantObs[i], wantStreak[i])
		}
	}
	// A server IP present in every observed week must be stable in the
	// last row despite the gap: the gap neither advances nor penalizes.
	last := series[3]
	if last.IPs[0] == 0 {
		t.Fatal("no stable IPs across the gap — gap penalized histories")
	}
}

// TestOpenStoreReadsSuperviseJournal: a supervise journal left in the
// campaign directory quarantines weeks in the store without any wiring.
func TestOpenStoreReadsSuperviseJournal(t *testing.T) {
	dir := campaign(t, 3, 2000)
	plain, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if q := plain.Quarantined(); len(q) != 0 {
		t.Fatalf("unsupervised campaign quarantined %v", q)
	}
	bad := plain.Weeks()[2]

	j, err := supervise.OpenJournalFS(vfs.Default, dir, "test-config")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&supervise.Record{Event: supervise.EventQuarantine, Week: bad, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	store, err := OpenStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if q := store.Quarantined(); len(q) != 1 || q[0] != bad {
		t.Fatalf("quarantined = %v, want [%d]", q, bad)
	}
	if !store.IsQuarantined(bad) || store.IsQuarantined(plain.Weeks()[0]) {
		t.Fatal("IsQuarantined wrong")
	}
}

// TestShedRetryAfterIsConstant: a shed response tells the client to
// come back in one second, whatever the server has loaded — slots free
// up as fast as snapshot loads finish.
func TestShedRetryAfterIsConstant(t *testing.T) {
	dir := campaign(t, 2, 1500)
	s, _ := openServer(t, dir, Config{MaxInFlight: 1})
	shed := func() string {
		t.Helper()
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/weeks", nil))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("saturated server answered %d", rec.Code)
		}
		return rec.Header().Get("Retry-After")
	}
	if got := shed(); got != "1" {
		t.Fatalf("Retry-After on a cold server = %q, want 1", got)
	}
	for _, wk := range s.store.Weeks() {
		if code, body := serveGet(s, endpointPath("week", wk, 0)); code != 200 {
			t.Fatalf("week %d: HTTP %d %s", wk, code, body)
		}
	}
	if got := shed(); got != "1" {
		t.Fatalf("Retry-After after loads = %q, want 1", got)
	}
}

// TestUndecodableProductSection: a week whose links section verifies
// but does not decode still serves its summary and server ranking
// byte-identically to the clean store, while /links answers a typed 422
// on the first request and on every later one — never a 200.
func TestUndecodableProductSection(t *testing.T) {
	dir, _, snaps := minedCampaign(t, 2, 1500)
	clean, _ := openServer(t, dir, Config{})
	wk, other := clean.store.Weeks()[0], clean.store.Weeks()[1]
	paths := []string{
		endpointPath("week", wk, 0),
		endpointPath("servers", wk, 0),
		endpointPath("servers", wk, 3),
		endpointPath("visibility", wk, 5),
	}
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		code, body := serveGet(clean, p)
		if code != 200 {
			t.Fatalf("clean %s: HTTP %d: %s", p, code, body)
		}
		want[p] = body
	}

	// Rewrite the week's snapshot with a links section that verifies but
	// does not decode. The builtin products go in as raw sections, which
	// AppendEncode writes exactly as the writer would.
	snap := snaps[wk]
	vp, err := snap.Visibility()
	if err != nil {
		t.Fatal(err)
	}
	visPayload, err := vp.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	attrs, err := snap.Attributes()
	if err != nil {
		t.Fatal(err)
	}
	attrsPayload, err := attrs.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := &snapshot.Snapshot{
		Result: snap.Result(), Counts: snap.Counts, SourceDigest: snap.SourceDigest,
		Extra: []snapshot.Section{
			{Name: analysis.NameAttributes, Version: analysis.AttributesVersion, Payload: attrsPayload},
			{Name: analysis.NameLinks, Version: 1, Payload: []byte{0, 0, 0, 9, 1, 2, 3}},
			{Name: analysis.NameVisibility, Version: 1, Payload: visPayload},
		},
	}
	if _, err := snapshot.SaveFileFS(vfs.Default, filepath.Join(dir, snapshot.FileName(wk)), forged); err != nil {
		t.Fatal(err)
	}

	s, _ := openServer(t, dir, Config{CacheWeeks: 1})
	for round := 0; round < 3; round++ {
		if code, body := serveGet(s, endpointPath("links", wk, 5)); code != http.StatusUnprocessableEntity {
			t.Fatalf("round %d: /links answered %d %s, want 422", round, code, body)
		}
		for _, p := range paths {
			if code, body := serveGet(s, p); code != 200 || !bytes.Equal(body, want[p]) {
				t.Fatalf("round %d: %s answered %d, body identical %v", round, p, code, bytes.Equal(body, want[p]))
			}
		}
		// Evict the week, so the next round loads it again.
		if code, body := serveGet(s, endpointPath("links", other, 5)); code != 200 {
			t.Fatalf("round %d: intact week's /links answered %d %s", round, code, body)
		}
	}
	if n := s.m.SnapshotLoads.Value(); n != 6 {
		t.Fatalf("%d snapshot loads, want 6: each round opens both weeks once", n)
	}
}
