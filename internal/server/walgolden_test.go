package server

// Upgrade tests for the WAL format. testdata/walgolden holds data
// directories written by earlier builds, and the outputs those builds
// served after replaying them:
//
//	v0-gob/  written by the last build whose records were gob (e233bfc)
//	v1/      written by the binary codec (walcodec.go, codec version 1)
//	want/    drains and /v1/history/range bodies after a replay
//
// Every later build must replay both directories to exactly want/.
// This file uses only the HTTP surface, so it compiles in any build
// since e233bfc. To regenerate a directory, run the generator in a
// checkout of the build that should write it, for v0-gob:
//
//	dir=$(mktemp -d); git archive e233bfc | tar -x -C "$dir"
//	cp internal/server/walgolden_test.go "$dir/internal/server/"
//	(cd "$dir" && SIDQ_WAL_GOLDEN=$PWD/out go test -count=1 -run TestWriteWALGolden ./internal/server)
//	rm -rf internal/server/testdata/walgolden/v0-gob
//	cp -r "$dir/out/wal" internal/server/testdata/walgolden/v0-gob
//
// and for v1 the same from this checkout. The generator also writes
// out/want, which must equal testdata/walgolden/want.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"sidq/internal/store"
)

const walGoldenDir = "testdata/walgolden"

// walGoldenConfig opens a durable service on the OS filesystem with
// small segments, so the golden log spans sealed segments and a
// manifest as well as the active segment.
func walGoldenConfig(dir string) Config {
	return Config{
		Logger: DiscardLogger(),
		Durability: DurabilityConfig{
			Dir: dir, Fsync: store.FsyncAlways, SnapshotEvery: 4, SegmentBytes: 1024,
		},
	}
}

// writeWALGolden runs the golden scenario against a durable service in
// work and copies the data directory, as a kill -9 would leave it, to
// out. It covers every record kind: opens, chunks with ?seq=, a
// partial and a flush drain, snapshots, a close, and two sessions
// still live at the crash.
func writeWALGolden(t *testing.T, work, out string) {
	t.Helper()
	svc, err := OpenService(walGoldenConfig(work))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc)
	ingest := func(id string, seq int, chunk string) {
		if _, resp := ingestChunkSeq(t, srv, id, uint64(seq), chunk); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s chunk %d status %d", id, seq, resp.StatusCode)
		}
	}
	drain := func(id, params string) {
		if _, resp := drainStream(t, srv, id, params); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s drain status %d", id, resp.StatusCode)
		}
	}

	a := openStream(t, srv, "lateness=2&maxspeed=50&lanes=3")
	for i, c := range testChunks(10) {
		if i == 6 {
			drain(a, "")
		}
		ingest(a, i+1, c)
	}
	b := openStream(t, srv, "lateness=1&lanes=1")
	for i := 1; i <= 3; i++ {
		ingest(b, i, chunkRow("bus-7", float64(i), 500+float64(i)*7.25, -40.5)+chunkRow("bus-9", float64(i)+0.5, -300, float64(i)*1e-3))
	}
	drain(b, "flush=1")
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/stream/"+b, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close %s: %v %v", b, err, resp)
	}
	c := openStream(t, srv, "lateness=0&maxspeed=0&lanes=2")
	ingest(c, 1, chunkRow("tram", 100, 1, 2)+chunkRow("tram", 101, -0.5, 2.125))
	ingest(c, 2, chunkRow("tram", 102, -1, 2.25))
	srv.Close()

	// Every record was acked under fsync=always, so the files are the
	// crash image. Copy them before Close appends its final snapshots.
	copyDir(t, work, out)
	svc.Close()
}

// walGoldenOutputs replays a copy of the data directory dir and
// returns what the recovered service serves, keyed by want/ file name:
// a flush drain of each session live at the crash, and history windows.
func walGoldenOutputs(t *testing.T, dir string) map[string]string {
	t.Helper()
	work := t.TempDir()
	copyDir(t, dir, work)
	svc, err := OpenService(walGoldenConfig(work))
	if err != nil {
		t.Fatalf("replay %s: %v", dir, err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc)
	defer srv.Close()
	out := map[string]string{}
	for _, id := range []string{"st-000001", "st-000003"} {
		body, resp := drainStream(t, srv, id, "flush=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %s: drain %s status %d", dir, id, resp.StatusCode)
		}
		out["drain-"+id+".ndjson"] = body
	}
	for name, params := range map[string]string{
		"history-all.ndjson":  "",
		"history-box.csv":     "minx=0&maxx=200&miny=0&maxy=120&format=csv",
		"history-late.ndjson": "mint=30",
	} {
		resp, err := http.Get(srv.URL + "/v1/history/range?" + params)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("replay %s: history %q: status %d, %v", dir, params, resp.StatusCode, err)
		}
		out[name] = string(body)
	}
	return out
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDirFiles maps each file name in dir to its contents.
func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

func diffFiles(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		g, gok := got[name]
		w, wok := want[name]
		switch {
		case !gok:
			t.Errorf("%s: %s missing", what, name)
		case !wok:
			t.Errorf("%s: unexpected %s", what, name)
		case g != w && utf8.ValidString(w):
			t.Errorf("%s: %s differs:\nwant:\n%s\ngot:\n%s", what, name, w, g)
		case g != w:
			t.Errorf("%s: %s differs: %d bytes, want %d", what, name, len(g), len(w))
		}
	}
}

// TestWriteWALGolden is the generator described at the top of this
// file; it runs only when SIDQ_WAL_GOLDEN names an output directory.
func TestWriteWALGolden(t *testing.T) {
	out := os.Getenv("SIDQ_WAL_GOLDEN")
	if out == "" {
		t.Skip("set SIDQ_WAL_GOLDEN to an output directory to write a golden data directory")
	}
	writeWALGolden(t, t.TempDir(), filepath.Join(out, "wal"))
	want := filepath.Join(out, "want")
	if err := os.MkdirAll(want, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range walGoldenOutputs(t, filepath.Join(out, "wal")) {
		if err := os.WriteFile(filepath.Join(want, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALGoldenReplay is the upgrade test: data directories written by
// the gob build and by the binary codec both replay to exactly the
// drains and history the gob build served.
func TestWALGoldenReplay(t *testing.T) {
	want := readDirFiles(t, filepath.Join(walGoldenDir, "want"))
	if len(want) == 0 || !strings.Contains(want["history-all.ndjson"], "bus-9") {
		t.Fatalf("golden want/ is empty or lacks the closed session's history")
	}
	for _, dir := range []string{"v0-gob", "v1"} {
		t.Run(dir, func(t *testing.T) {
			diffFiles(t, dir, walGoldenOutputs(t, filepath.Join(walGoldenDir, dir)), want)
		})
	}
}

// TestWALGoldenV1Pinned: this build writes the golden scenario byte
// for byte as testdata/walgolden/v1 holds it, so any change to the
// codec's layout shows up here and must take a new codec version.
func TestWALGoldenV1Pinned(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wal")
	writeWALGolden(t, t.TempDir(), out)
	diffFiles(t, "v1 segments", readDirFiles(t, out), readDirFiles(t, filepath.Join(walGoldenDir, "v1")))
}
