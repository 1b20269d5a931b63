package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"allsatpre/internal/allsat"
	"allsatpre/internal/circuit"
	"allsatpre/internal/cnf"
	"allsatpre/internal/core"
	"allsatpre/internal/cube"
	"allsatpre/internal/gen"
	"allsatpre/internal/pool"
	"allsatpre/internal/server"
	"allsatpre/internal/trans"
)

// serveWorkload is serve-mix: an in-process server.New(Config{}) on the
// default pooled runtime, driven as a closed loop by procs() clients
// over a seeded mix of stateless NDJSON streams and stateful
// session lifecycles.
type serveWorkload struct {
	failLog
	tr     *tracer
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	enum     []enumPayload
	pre      []prePayload
	sessions []sessionPayload
	before   map[string]float64 // /debug/stats after set-up
}

// The request classes. serveCycle is each client's fixed request order,
// one request per class: the repository records no traffic distribution,
// so the mix is a synthetic equal share. The seed draws the instances,
// never the mix. Client c starts at offset c*len/2 so the two clients run
// different classes at the same time.
const (
	classDisjoint = "enum_disjoint"
	classLifting  = "enum_lifting"
	classBlocking = "enum_blocking"
	classSuccess  = "enum_success"
	classPreimage = "preimage"
	classSession  = "session"
)

var serveCycle = []string{
	classDisjoint, classPreimage, classLifting,
	classSession, classBlocking, classSuccess,
}

// enumQuery is a stream class's query string; the parallel engines run
// procs() workers.
func enumQuery(class string) string {
	workers := "&workers=" + strconv.Itoa(procs())
	return map[string]string{
		classDisjoint: "engine=disjoint" + workers,
		classLifting:  "engine=lifting",
		classBlocking: "engine=blocking",
		classSuccess:  "engine=success" + workers,
	}[class]
}

// servePayloads is how many seed-drawn instances each class cycles through.
const servePayloads = 64

type enumPayload struct {
	name   string
	dimacs []byte
	f      *cnf.Formula
	proj   *cube.Space
	width  int
	ref    bitset // (state ++ input) assignments leading into the target
}

type prePayload struct {
	c      *circuit.Circuit
	bench  []byte
	target string
	ref    bitset // states with some input leading into the target
}

type sessionPayload struct {
	name   string
	body   []byte
	layers []int // explicit backward BFS layer sizes
}

func (w *serveWorkload) clients() int         { return procs() }
func (w *serveWorkload) setTracer(tr *tracer) { w.tr = tr }

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// streamCircuit is a stream payload family: a circuit, how its targets
// are drawn (a free position every xEvery, 0 for a full state), and the
// band [lo, hi] the target's projected solution count — the reference
// count of (state, input) pairs leading into it — must fall in.
type streamCircuit struct {
	c      *circuit.Circuit
	xEvery int
	lo, hi int
}

// streamCircuits are small enough that the reference tabulates every
// (state, input) assignment, and sized so one stream carries tens to
// about a thousand projected solutions: engine work, not HTTP overhead,
// dominates a request, and the full-minterm blocking engine stays within
// tens of milliseconds. The solution-count bands keep a family's cost
// from swinging with the draw (unbanded, mult4 targets range over
// 160–928 solutions and slike1 over 256–1664), so the mix costs the same
// for every seed.
func streamCircuits() []streamCircuit {
	return []streamCircuit{
		{gen.MultCore(4), 0, 300, 500},
		{gen.SLike(gen.SLikeParams{Seed: 1, Inputs: 6, Latches: 6, Gates: 60}), 0, 1300, 1700},
		{gen.Arbiter(4), 3, 70, 110},
		{gen.MultCore(5), 0, 900, 1300},
		{gen.FIFOCtrl(4), 3, 1, 64},
	}
}

// bandedTarget draws producible targets until one has a solution count
// inside the family's band.
func bandedTarget(sc streamCircuit, m *explicitModel, r *rand.Rand) (string, bitset, error) {
	for try := 0; try < 256; try++ {
		t, err := producibleTarget(sc.c, r, sc.xEvery)
		if err != nil {
			return "", nil, err
		}
		tset := patternSet(len(sc.c.Latches), []string{t})
		if n := m.prePairs(tset).count(); n >= sc.lo && n <= sc.hi {
			return t, tset, nil
		}
	}
	return "", nil, fmt.Errorf("%s: no target with %d..%d solutions in 256 draws", sc.c.Name, sc.lo, sc.hi)
}

// sessionCircuits mix deep, propagation-only walks (gray5 and johnson8,
// 16–32 steps; fifo4, about 30) with shallow ones on circuits with
// inputs (arbiter4, slike2), whose steps search and keep learned clauses
// and memo entries across retargeting.
func sessionCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		gen.GrayCounter(5),
		gen.FIFOCtrl(4),
		gen.Johnson(8),
		gen.Arbiter(4),
		gen.SLike(gen.SLikeParams{Seed: 2, Inputs: 8, Latches: 8, Gates: 120}),
	}
}

func (w *serveWorkload) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	ecs := streamCircuits()
	models := make([]*explicitModel, len(ecs))
	for i, sc := range ecs {
		m, err := newExplicitModel(sc.c)
		if err != nil {
			return err
		}
		models[i] = m
	}
	for k := 0; k < servePayloads; k++ {
		i := k % len(ecs)
		c, m := ecs[i].c, models[i]
		t, tset, err := bandedTarget(ecs[i], m, r)
		if err != nil {
			return err
		}
		inst, err := trans.NewInstance(c, trans.TargetFromPatterns(len(c.Latches), t))
		if err != nil {
			return err
		}
		proj := inst.FullSpace.Vars()
		w.enum = append(w.enum, enumPayload{
			name:   c.Name + "/" + t,
			dimacs: []byte(cnf.DimacsString(inst.F, proj)),
			f:      inst.F,
			proj:   cube.NewSpace(proj),
			width:  len(proj),
			ref:    m.prePairs(tset),
		})
		t, tset, err = bandedTarget(ecs[i], m, r)
		if err != nil {
			return err
		}
		w.pre = append(w.pre, prePayload{
			c:      c,
			bench:  []byte(circuit.BenchString(c)),
			target: t,
			ref:    m.preStates(tset),
		})
	}
	scs := sessionCircuits()
	smodels := make([]*explicitModel, len(scs))
	for i, c := range scs {
		m, err := newExplicitModel(c)
		if err != nil {
			return err
		}
		smodels[i] = m
	}
	for k := 0; k < servePayloads; k++ {
		c, m := scs[k%len(scs)], smodels[k%len(scs)]
		t, err := producibleTarget(c, r, 0)
		if err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{
			"bench": circuit.BenchString(c), "target": []string{t}, "workers": 1,
		})
		if err != nil {
			return err
		}
		w.sessions = append(w.sessions, sessionPayload{
			name:   c.Name + "/" + t,
			body:   body,
			layers: m.backwardLayers(patternSet(len(c.Latches), []string{t})),
		})
	}

	w.srv = server.New(server.Config{})
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * maxProcs, DisableCompression: true},
	}
	// Warm-up: one untimed request of every class.
	for seq := range serveCycle {
		if s := w.op(0, seq, false)[0]; !s.ok {
			return fmt.Errorf("warm-up %s request failed: %v", s.class, w.failures())
		}
	}
	before, err := w.stats()
	if err != nil {
		return err
	}
	w.before = before
	return nil
}

// stats reads the server's /debug/stats counters and gauges.
func (w *serveWorkload) stats() (map[string]float64, error) {
	resp, err := w.client.Get(w.ts.URL + "/debug/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /debug/stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if s, ok := v.(string); ok {
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				out[k] = f
			}
		}
	}
	return out, nil
}

func (w *serveWorkload) op(client, seq int, tracing bool) []sample {
	pos := seq + client*len(serveCycle)/2
	class := serveCycle[pos%len(serveCycle)]
	idx := pos / len(serveCycle) % servePayloads
	// A traced run alternates untraced and traced requests over the same
	// mix, so the two medians give the tracing overhead.
	var tr *tracer
	if tracing && seq%2 == 1 {
		tr = w.tr
	}
	op := tr.newOp()
	var s sample
	switch class {
	case classPreimage:
		s = w.preimage(tr, op, w.pre[idx])
	case classSession:
		s = w.session(tr, op, w.sessions[idx])
	default:
		s = w.enumerate(tr, op, class, w.enum[idx])
	}
	s.class, s.traced = class, tr != nil
	return []sample{s}
}

// ndjson reads one response stream line by line, recording the client
// spans: send to response headers, to the first line, and to the summary.
type ndjson struct {
	tr       *tracer
	op, root int
	t0       time.Time
	first    time.Duration // first cube line
	cubes    []string
	header   bool
	summary  map[string]any
}

func (w *serveWorkload) post(nd *ndjson, url string, body []byte) (*http.Response, error) {
	sp := nd.tr.begin(nd.op, nd.root, "http.headers")
	resp, err := w.client.Post(url, "application/octet-stream", bytes.NewReader(body))
	nd.tr.end(sp)
	return resp, err
}

// read drains the stream. Cube lines are matched by prefix so the
// client's parsing stays small next to the server's work.
func (nd *ndjson) read(body io.Reader) error {
	const cubePrefix = `{"type":"cube","cube":"`
	br := bufio.NewReaderSize(body, 64<<10)
	sp := nd.tr.begin(nd.op, nd.root, "http.first_line")
	lines := 0
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return fmt.Errorf("line longer than %d bytes", br.Size())
		}
		if len(line) > 0 {
			lines++
			if lines == 1 {
				nd.tr.end(sp)
				nd.tr.observe("server.first_line_ms", msSince(nd.t0))
				sp = nd.tr.begin(nd.op, nd.root, "http.stream")
			}
			if bytes.HasPrefix(line, []byte(cubePrefix)) {
				rest := line[len(cubePrefix):]
				end := bytes.IndexByte(rest, '"')
				if end < 0 {
					return fmt.Errorf("malformed cube line %q", line)
				}
				if len(nd.cubes) == 0 {
					nd.first = time.Since(nd.t0)
				}
				nd.cubes = append(nd.cubes, string(rest[:end]))
			} else {
				var ev map[string]any
				if err := json.Unmarshal(line, &ev); err != nil {
					return fmt.Errorf("malformed line %q: %v", line, err)
				}
				switch ev["type"] {
				case "header":
					nd.header = true
				case "summary":
					nd.summary = ev
				}
			}
		}
		if err == io.EOF {
			nd.tr.end(sp)
			return nil
		}
		if err != nil {
			nd.tr.end(sp)
			return err
		}
	}
}

// streamOp runs one NDJSON request and the checks common to every
// stream: status 200, a header, a complete (untruncated) summary whose
// cube count matches the lines received, and the streamed cubes folded
// as a set equal to the reference — so the arrival order of parallel
// streams never matters.
func (w *serveWorkload) streamOp(tr *tracer, op int, class, name, url string, body []byte,
	ref bitset, width int, countInSummary bool) sample {
	nd := &ndjson{tr: tr, op: op, t0: time.Now()}
	nd.root = tr.begin(op, 0, "server."+class)
	defer tr.end(nd.root)
	fail := func(format string, args ...any) sample {
		w.add("%s %s: %s", class, name, fmt.Sprintf(format, args...))
		d := time.Since(nd.t0)
		return sample{dur: d, first: d}
	}
	resp, err := w.post(nd, url, body)
	if err != nil {
		return fail("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fail("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := nd.read(resp.Body); err != nil {
		return fail("%v", err)
	}
	d := time.Since(nd.t0)
	s := sample{dur: d, first: nd.first}
	if len(nd.cubes) == 0 {
		s.first = d
	}
	tr.observe("server."+class+"_ms", float64(d)/1e6)
	switch {
	case !nd.header || nd.summary == nil:
		return fail("stream without header or summary")
	case nd.summary["truncated"] == true:
		return fail("truncated: %v", nd.summary["reason"])
	case nd.summary["cubes"] != float64(len(nd.cubes)):
		return fail("summary says %v cubes, received %d", nd.summary["cubes"], len(nd.cubes))
	}
	if countInSummary {
		want := strconv.Itoa(ref.count())
		if nd.summary["count"] != want {
			return fail("summary count %v, want %s", nd.summary["count"], want)
		}
	}
	cc := newCoverCheck(ref, width)
	for _, c := range nd.cubes {
		cc.add(c)
	}
	if !cc.exact() {
		return fail("streamed cubes cover %d assignments (sound=%v), want %d",
			cc.seen.count(), cc.sound, ref.count())
	}
	s.ok = true
	return s
}

func (w *serveWorkload) enumerate(tr *tracer, op int, class string, p enumPayload) sample {
	return w.streamOp(tr, op, class, p.name, w.ts.URL+"/v1/enumerate?"+enumQuery(class),
		p.dimacs, p.ref, p.width, class == classSuccess)
}

func (w *serveWorkload) preimage(tr *tracer, op int, p prePayload) sample {
	u := w.ts.URL + "/v1/preimage?target=" + url.QueryEscape(p.target)
	return w.streamOp(tr, op, classPreimage, p.c.Name+"/"+p.target, u, p.bench,
		p.ref, len(p.c.Latches), true)
}

// session runs one lifecycle: create, step to fixpoint, delete. It checks
// each step's new-state count against the explicit BFS layers, so the
// fixpoint depth and reached-state count match the reference.
func (w *serveWorkload) session(tr *tracer, op int, p sessionPayload) sample {
	t0 := time.Now()
	root := tr.begin(op, 0, "server."+classSession)
	defer tr.end(root)
	fail := func(format string, args ...any) sample {
		w.add("session %s: %s", p.name, fmt.Sprintf(format, args...))
		d := time.Since(t0)
		return sample{dur: d, first: d}
	}
	sp := tr.begin(op, root, "http.create")
	var created struct {
		ID string `json:"id"`
	}
	err := w.call(http.MethodPost, w.ts.URL+"/v1/sessions", p.body, http.StatusCreated, &created)
	tr.end(sp)
	if err != nil {
		return fail("create: %v", err)
	}
	tr.observe("server.first_line_ms", msSince(t0))
	var first time.Duration
	layers := len(p.layers)
	for step := 1; ; step++ {
		var reply struct {
			Step      int    `json:"step"`
			NewStates string `json:"new_states"`
			Fixpoint  bool   `json:"fixpoint"`
			Truncated bool   `json:"truncated"`
		}
		st := time.Now()
		sp = tr.begin(op, root, "http.step")
		err := w.call(http.MethodPost, w.ts.URL+"/v1/sessions/"+created.ID+"/step", nil, http.StatusOK, &reply)
		tr.end(sp)
		if err != nil {
			return fail("step %d: %v", step, err)
		}
		tr.observe("incr.step_ms", msSince(st))
		if step == 1 {
			first = time.Since(t0)
		}
		if reply.Truncated {
			return fail("step %d truncated", step)
		}
		want := "0"
		if step < layers {
			want = strconv.Itoa(p.layers[step])
		}
		if reply.NewStates != want || reply.Step != step {
			return fail("step %d (reply step %d): %s new states, want %s", step, reply.Step, reply.NewStates, want)
		}
		if reply.Fixpoint {
			// The last preimage adds nothing: depth d takes d+1 steps.
			if step != layers {
				return fail("fixpoint after %d steps, want %d", step, layers)
			}
			if tr != nil {
				w.observeSession(tr)
			}
			break
		}
		if step >= layers {
			return fail("no fixpoint after %d steps", step)
		}
	}
	sp = tr.begin(op, root, "http.delete")
	err = w.call(http.MethodDelete, w.ts.URL+"/v1/sessions/"+created.ID, nil, http.StatusNoContent, nil)
	tr.end(sp)
	if err != nil {
		return fail("delete: %v", err)
	}
	d := time.Since(t0)
	tr.observe("server."+classSession+"_ms", float64(d)/1e6)
	return sample{dur: d, first: first, ok: true}
}

// observeSession records the incremental session's learnt-clause and
// memo gauges at a traced session's fixpoint. The server publishes them
// per step, so a step of the other client's session may land in between;
// the mean over many sessions smooths that out.
func (w *serveWorkload) observeSession(tr *tracer) {
	st, err := w.stats()
	if err != nil {
		w.add("reading /debug/stats: %v", err)
		return
	}
	tr.observe("incr.learned_live", st["incr.learned-live"])
	tr.observe("incr.memo_size", st["incr.memo-size"])
}

// call makes one JSON request and decodes the reply into out (if non-nil).
func (w *serveWorkload) call(method, u string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// layers reports the serve-mix per-layer metrics: client-side request
// spans per class, /debug/stats deltas over the measured loop, a direct
// replay of the enumerate payloads through the allsat engines, and a
// pipeline replay of the preimage payloads.
func (w *serveWorkload) layers(tr *tracer) map[string]float64 {
	v := map[string]float64{}
	after, err := w.stats()
	if err != nil {
		w.add("reading /debug/stats: %v", err)
		after = w.before
	}
	delta := func(k string) float64 { return after[k] - w.before[k] }
	for _, class := range []string{classDisjoint, classLifting, classBlocking, classSuccess, classPreimage, classSession} {
		v["server."+class+"_ms.p50"] = tr.p50("server." + class + "_ms")
	}
	v["server.first_line_ms.p50"] = tr.p50("server.first_line_ms")
	// Requests that found every solve slot busy, whether they queued or
	// were refused, per admitted request. Under Config{} nothing queues
	// (AdmissionWait is 0) and procs() clients never outnumber the
	// GOMAXPROCS slots, so this reads 0 unless a change holds slots longer
	// or takes more of them; a refusal also fails its op.
	if a := delta("server.admitted"); a > 0 {
		v["server.admission_queued_ratio"] = (delta("server.queue-entered") + delta("server.rejected")) / a
	}
	if n := delta("runtime.solver-hits") + delta("runtime.solver-misses"); n > 0 {
		v["runtime.solver_hit_ratio"] = delta("runtime.solver-hits") / n
	}
	v["runtime.bytes_retained"] = after["runtime.bytes-retained"]
	v["incr.step_ms"] = tr.p50("incr.step_ms")
	v["incr.learned_live"] = tr.mean("incr.learned_live")
	v["incr.memo_size"] = tr.mean("incr.memo_size")

	for k, x := range w.replayEngines(tr) {
		v[k] = x
	}
	// The preimage payloads through the pipeline replay, on a tracer of
	// their own so the per-op figures are per preimage.
	ptr := newTracer()
	for _, p := range w.pre {
		op := ptr.newOp()
		rep, err := replayPreimage(ptr, op, 0, p.c, trans.TargetFromPatterns(len(p.c.Latches), p.target), 1, nil)
		if err != nil {
			w.add("preimage %s replay: %v", p.target, err)
			continue
		}
		if rep.count.Cmp(big.NewInt(int64(p.ref.count()))) != 0 {
			w.add("preimage %s replay: %v states, want %d", p.target, rep.count, p.ref.count())
		}
	}
	for k, x := range preimageLayers(ptr) {
		v[k] = x
	}
	return v
}

// replayEngines runs every enumerate payload once through each engine's
// library entry point — the calls the server's stream handlers wrap —
// timing each and checking its count against the reference.
func (w *serveWorkload) replayEngines(tr *tracer) map[string]float64 {
	engines := []struct {
		name string
		run  func(p enumPayload) *allsat.Result
	}{
		{"disjoint", func(p enumPayload) *allsat.Result {
			return allsat.EnumerateDisjoint(p.f.Clone(), p.proj, allsat.Options{Workers: procs()})
		}},
		{"lifting", func(p enumPayload) *allsat.Result {
			return allsat.EnumerateLifting(p.f.Clone(), p.proj, allsat.Options{})
		}},
		{"blocking", func(p enumPayload) *allsat.Result {
			return allsat.EnumerateBlocking(p.f.Clone(), p.proj, allsat.Options{})
		}},
		{"success", func(p enumPayload) *allsat.Result {
			return pool.EnumerateToResult(p.f.Clone(), p.proj, pool.Options{Workers: procs(), Core: core.DefaultOptions()})
		}},
	}
	v := map[string]float64{}
	conflicts, runs := 0.0, 0.0
	for _, e := range engines {
		var ms []float64
		for _, p := range w.enum {
			t0 := time.Now()
			res := e.run(p)
			ms = append(ms, msSince(t0))
			if res.Aborted || res.Count.Cmp(big.NewInt(int64(p.ref.count()))) != 0 {
				w.add("%s replay of %s: count %v (aborted=%v), want %d", e.name, p.name, res.Count, res.Aborted, p.ref.count())
			}
			if e.name != "success" {
				conflicts += float64(res.Stats.Conflicts)
				runs++
				tr.max("sat.peak_learnt_bytes", float64(res.Stats.PeakLearntBytes))
			}
		}
		v["allsat.enumerate_ms."+e.name] = median(ms)
	}
	v["sat.conflicts"] = conflicts / runs
	v["sat.peak_learnt_bytes"] = tr.high("sat.peak_learnt_bytes")
	return v
}
