package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protest"
	"protest/internal/artifact"
	"protest/internal/server"
	"protest/internal/shard"
)

// The service request mix.  Each heavy list holds at least as many
// circuits as a 2-CPU host has clients, so the clients of one step send
// distinct requests except in the duplicate step.
var (
	analyzeCircuits  = []string{"alu", "c432", "c880"}
	inlineCircuits   = []string{"c1355", "c499"} // /v1/pipeline with an inline netlist, no_shard
	shardCircuits    = []string{"mult", "c1355"} // /v1/pipeline sharded, then again with no_shard
	validateCircuits = []string{"c17", "sn7485"} // /v1/validate
)

const (
	// heavyPatterns is the simulation budget of every heavy pipeline
	// request, sized so a request runs for tens of milliseconds.
	heavyPatterns = 8192
	// lightSteps is the number of all-analyze steps per round; with
	// two clients they cover every analyze circuit and fault model
	// twice.
	lightSteps = 9
)

// heavyReq is one distinct heavy request: its route, circuit and body.
type heavyReq struct {
	route, circuit, path string
	body                 []byte
	netlist              string // inline netlist source, for the pipeline route
}

func (h heavyReq) kind() string { return h.route + "/" + h.circuit }
func (h heavyReq) key() string  { return "service/" + h.kind() }

// analyzed is one /v1/analyze request kept for the post-run check:
// where it sat, from which analyzeOp rebuilds the request, and the
// digest of its response body.
type analyzed struct {
	round, slot int32
	digest      [32]byte
}

// serviceWL drives a coordinator server, sharding through one
// in-process worker server, from nproc clients in lockstep steps.
type serviceWL struct {
	seed    uint64
	clients int
	book    *digestBook
	rng     *rand.Rand

	worker, coord *server.Server
	https         []*http.Server
	served        sync.WaitGroup
	base          string
	client        *http.Client

	heavy  map[string][]heavyReq // route -> one request per circuit
	inputs map[string]int        // analyze circuit -> its input count
	rounds int                   // rounds generated, from a seeded start

	mu        sync.Mutex
	analyses  []analyzed
	analyzeN  atomic.Int64 // analyze requests sent
	closeOnce sync.Once
}

func newService(seed uint64, book *digestBook) *serviceWL {
	return &serviceWL{
		seed:    seed,
		clients: max(2, runtime.NumCPU()),
		book:    book,
		rng:     rand.New(rand.NewPCG(seed, 0x73657276)),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, DisableCompression: true}},
		heavy:   map[string][]heavyReq{},
		inputs:  map[string]int{},
		rounds:  int(seed % uint64(len(inlineCircuits))),
	}
}

// listen serves h on a fresh loopback port and returns its address.
func (w *serviceWL) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	w.https = append(w.https, hs)
	w.served.Add(1)
	go func() {
		defer w.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ln.Addr().String(), nil
}

func (w *serviceWL) setup(ctx context.Context) error {
	w.worker = server.New(server.Config{Worker: true, Seed: w.seed})
	waddr, err := w.listen(w.worker.Handler())
	if err != nil {
		return err
	}
	w.coord = server.New(server.Config{Seed: w.seed, WorkerAddrs: []string{waddr}})
	caddr, err := w.listen(w.coord.Handler())
	if err != nil {
		return err
	}
	w.base = "http://" + caddr
	if err := w.buildHeavy(); err != nil {
		return err
	}
	for _, name := range analyzeCircuits {
		c, ok := protest.Benchmark(name)
		if !ok {
			return fmt.Errorf("unknown circuit %q", name)
		}
		w.inputs[name] = len(c.Inputs)
	}
	// Warm pass: every distinct heavy request once, then one analyze
	// per circuit and fault model.
	for _, route := range []string{"pipeline", "sharded", "local", "validate"} {
		for _, h := range w.heavy[route] {
			body, err := w.post(ctx, h.path, h.body)
			if err != nil {
				return fmt.Errorf("warm %s: %w", h.key(), err)
			}
			w.book.record(h.key(), digestBytes(body))
		}
	}
	// Every timed repeat must reproduce its warm body, so this also
	// holds the sharded and no_shard bodies of the timed phase equal.
	for i, h := range w.heavy["sharded"] {
		if local := w.heavy["local"][i]; w.book.get(h.key()) != w.book.get(local.key()) {
			w.book.failWarm(fmt.Errorf("%s: body differs from %s", h.key(), local.key()))
		}
	}
	for q := range len(analyzeCircuits) * len(protest.FaultModels()) {
		name, _, _ := w.analyzeOp(warmRound, q)
		if err := w.analyze(ctx, warmRound, q, w.analyzeBody(warmRound, q)); err != nil {
			return fmt.Errorf("warm analyze/%s: %w", name, err)
		}
	}
	return nil
}

// warmRound is the round number of the warm pass's analyze requests.
const warmRound = -1

// analyzeOp returns the circuit, fault model and input tuple of the
// analyze request in slot q of round r.  The slots of a round cover
// every circuit and fault model equally often; the tuple is drawn from
// (seed, r, q), so the post-run check rebuilds it instead of keeping
// it.  The warm pass sends no tuple (uniform inputs).
func (w *serviceWL) analyzeOp(r, q int) (circuit, model string, probs []float64) {
	models := protest.FaultModels()
	circuit = analyzeCircuits[q%len(analyzeCircuits)]
	model = string(models[q/len(analyzeCircuits)%len(models)])
	if r == warmRound {
		return circuit, model, nil
	}
	rng := rand.New(rand.NewPCG(w.seed^0x616e616c, uint64(r)<<32|uint64(q)))
	probs = make([]float64, w.inputs[circuit])
	for k := range probs {
		probs[k] = 0.05 + 0.9*rng.Float64()
	}
	return circuit, model, probs
}

// analyzeBody returns the request body of analyzeOp(r, q).
func (w *serviceWL) analyzeBody(r, q int) []byte {
	circuit, model, probs := w.analyzeOp(r, q)
	body, _ := json.Marshal(server.AnalyzeRequest{CircuitRef: server.CircuitRef{Circuit: circuit}, InputProbs: probs, FaultModel: model})
	return body
}

func (w *serviceWL) buildHeavy() error {
	spec := protest.PipelineSpec{SimPatterns: heavyPatterns}
	for _, name := range inlineCircuits {
		c, ok := protest.Benchmark(name)
		if !ok {
			return fmt.Errorf("unknown circuit %q", name)
		}
		src, err := protest.NetlistString(c)
		if err != nil {
			return err
		}
		local := spec
		local.NoShard = true
		if err := w.addHeavy("pipeline", name, "/v1/pipeline", server.PipelineRequest{
			CircuitRef: server.CircuitRef{Netlist: src, Name: name}, Spec: local}, src); err != nil {
			return err
		}
	}
	for _, name := range shardCircuits {
		local := spec
		local.NoShard = true
		for route, sp := range map[string]protest.PipelineSpec{"sharded": spec, "local": local} {
			if err := w.addHeavy(route, name, "/v1/pipeline", server.PipelineRequest{
				CircuitRef: server.CircuitRef{Circuit: name}, Spec: sp}, ""); err != nil {
				return err
			}
		}
	}
	for _, name := range validateCircuits {
		if err := w.addHeavy("validate", name, "/v1/validate", server.ValidateRequest{
			CircuitRef: server.CircuitRef{Circuit: name}}, ""); err != nil {
			return err
		}
	}
	return nil
}

func (w *serviceWL) addHeavy(route, circuit, path string, req any, netlist string) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	w.heavy[route] = append(w.heavy[route], heavyReq{route, circuit, path, body, netlist})
	return nil
}

// post sends one request and returns the body of its 200 response.
func (w *serviceWL) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, out)
	}
	return out, nil
}

// analyze sends the analyze request of slot q of round r, whose body
// is given, and keeps the digest of the response for the post-run
// check against the library.
func (w *serviceWL) analyze(ctx context.Context, r, q int, body []byte) error {
	w.analyzeN.Add(1)
	out, err := w.post(ctx, "/v1/analyze", body)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.analyses = append(w.analyses, analyzed{int32(r), int32(q), sha256.Sum256(out)})
	w.mu.Unlock()
	return nil
}

// heavyCall sends h and checks the body against its warm digest.
func (w *serviceWL) heavyCall(h heavyReq) call {
	return call{kind: h.kind(), class: "heavy", do: func(ctx context.Context) error {
		body, err := w.post(ctx, h.path, h.body)
		if err != nil {
			return err
		}
		return w.book.same(h.key(), digestBytes(body))
	}}
}

// round returns the next round: lightSteps all-analyze steps, one
// inline pipeline step, one duplicate step, one sharded step directly
// followed by its no_shard step, and one validate step, in seeded
// order.  Each analyze request carries a fresh seeded input tuple.
// The composition of a round is fixed: the analyze requests cover
// every circuit and fault model equally often, and the duplicate step
// rotates through the inline circuits from a seeded start.
func (w *serviceWL) round(bool) []step {
	w.rounds++
	r := w.rounds
	var units [][]step
	for i := 0; i < lightSteps; i++ {
		st := make(step, w.clients)
		for j := range st {
			q := i*w.clients + j
			name, _, _ := w.analyzeOp(r, q)
			body := w.analyzeBody(r, q)
			st[j] = call{kind: "analyze/" + name, class: "light", do: func(ctx context.Context) error {
				return w.analyze(ctx, r, q, body)
			}}
		}
		units = append(units, []step{st})
	}
	perClient := func(route string) step {
		st := make(step, w.clients)
		for j := range st {
			st[j] = w.heavyCall(w.heavy[route][j%len(w.heavy[route])])
		}
		return st
	}
	dup := make(step, w.clients)
	h := w.heavy["pipeline"][r%len(w.heavy["pipeline"])]
	for j := range dup {
		dup[j] = w.heavyCall(h)
	}
	units = append(units,
		[]step{perClient("pipeline")},
		[]step{dup},
		[]step{perClient("sharded"), perClient("local")},
		[]step{perClient("validate")})
	w.rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	var steps []step
	for _, u := range units {
		steps = append(steps, u...)
	}
	return steps
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Stats server.Stats `json:"stats"`
	Shard *shard.Stats `json:"shard"`
}

func (w *serviceWL) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	if h.Shard == nil {
		return nil, errors.New("healthz: no shard pool")
	}
	st := h.Stats
	return map[string]float64{
		"analyze_requests": float64(w.analyzeN.Load()),
		"analyze_passes":   float64(st.AnalyzePasses),
		"coalesce_leads":   float64(st.Coalesce.Leads),
		"coalesce_joins":   float64(st.Coalesce.Joins),
		"batch_flushes":    float64(st.Batch.Flushes),
		"batch_requests":   float64(st.Batch.Requests),
		"rejected":         float64(st.Rejected),
		"shard_runs":       float64(h.Shard.Runs),
		"shards":           float64(h.Shard.Shards),
		"shard_retries":    float64(h.Shard.Retries),
		"shard_hedges":     float64(h.Shard.Hedges),
		"local_fallbacks":  float64(h.Shard.LocalFallbacks),
	}, nil
}

// finish checks every response against the library: each distinct
// heavy request's warm body (which every timed repeat reproduced) and
// every analyze body.  A traced run then times, outside the server,
// the parse, intern and exact-BDD calls the heavy requests make.
func (w *serviceWL) finish(ctx context.Context, rec *recorder, tr *tracer) {
	lib := map[string]*protest.Session{}
	session := func(name, netlist string) (*protest.Session, error) {
		key := name + "\x00" + netlist
		if s, ok := lib[key]; ok {
			return s, nil
		}
		var c *protest.Circuit
		var err error
		if netlist != "" {
			c, err = protest.ParseNetlistString(netlist, name)
		} else if bc, ok := protest.Benchmark(name); ok {
			c = bc
		} else {
			err = fmt.Errorf("unknown circuit %q", name)
		}
		if err != nil {
			return nil, err
		}
		s, err := protest.Open(c, protest.WithSeed(w.seed))
		if err != nil {
			return nil, err
		}
		lib[key] = s
		return s, nil
	}
	for _, reqs := range w.heavy {
		for _, h := range reqs {
			if err := w.checkHeavy(ctx, h, session); err != nil {
				rec.fail(fmt.Errorf("%s: %w", h.key(), err))
			}
		}
	}
	for _, a := range w.analyses {
		name, model, probs := w.analyzeOp(int(a.round), int(a.slot))
		s, err := session(name, "")
		if err == nil {
			err = checkAnalyze(ctx, s, model, probs, a.digest)
		}
		if err != nil {
			rec.fail(fmt.Errorf("analyze/%s: %w", name, err))
		}
	}
	if tr != nil {
		w.timeLayers(tr.side(ctx))
	}
}

func (w *serviceWL) checkHeavy(ctx context.Context, h heavyReq, session func(name, netlist string) (*protest.Session, error)) error {
	s, err := session(h.circuit, h.netlist)
	if err != nil {
		return err
	}
	var v any
	if h.route == "validate" {
		v, err = s.Validate(ctx, protest.ValidateSpec{})
	} else {
		var req server.PipelineRequest
		if err := json.Unmarshal(h.body, &req); err != nil {
			return err
		}
		v, err = s.Run(ctx, req.Spec)
	}
	if err != nil {
		return err
	}
	d, err := digestJSON(v)
	if err != nil {
		return err
	}
	if d != w.book.get(h.key()) {
		return errors.New("response body differs from the library result")
	}
	return nil
}

// checkAnalyze rebuilds the /v1/analyze response to the request with
// the given fault model and input tuple with the library, and compares
// its digest with the served body's.
func checkAnalyze(ctx context.Context, s *protest.Session, modelName string, probs []float64, digest [32]byte) error {
	model, err := protest.ParseFaultModel(modelName)
	if err != nil {
		return err
	}
	res, err := s.Analyze(ctx, probs)
	if err != nil {
		return err
	}
	c := s.Circuit()
	faults := protest.FaultsFor(c, model)
	detect := res.DetectProbs(faults)
	st := c.Stats()
	resp := server.AnalyzeResponse{Circuit: c.Name, Gates: st.Gates, Inputs: st.Inputs, Outputs: st.Outputs,
		Faults: make([]server.FaultReport, len(faults))}
	hardest := 0
	for i, f := range faults {
		resp.Faults[i] = server.FaultReport{Name: f.Name(c), DetectProb: detect[i]}
		if detect[i] < detect[hardest] {
			hardest = i
		}
	}
	if len(faults) > 0 {
		resp.HardestFault, resp.HardestProb = resp.Faults[hardest].Name, detect[hardest]
	}
	d, err := digestJSON(resp)
	if err != nil {
		return err
	}
	if d != hex.EncodeToString(digest[:]) {
		return errors.New("response body differs from the library result")
	}
	return nil
}

// layerReps is how many times a traced run repeats each outside-server
// layer call.
const layerReps = 5

// timeLayers times, as root spans, the netlist parse and artifact
// intern of every inline netlist body and the exact BDD detection
// probabilities of every validate circuit.
func (w *serviceWL) timeLayers(ctx context.Context) {
	for i := 0; i < layerReps; i++ {
		for _, h := range w.heavy["pipeline"] {
			var c *protest.Circuit
			if timed(ctx, "netlist.parse", func() (int64, error) {
				var err error
				c, err = protest.ParseNetlistString(h.netlist, h.circuit)
				return 0, err
			}) != nil {
				continue
			}
			_ = timed(ctx, "artifact.intern", func() (int64, error) {
				artifact.Default.Intern(c)
				return 0, nil
			})
		}
		for _, name := range validateCircuits {
			c, _ := protest.Benchmark(name)
			_ = timed(ctx, "bdd.exact", func() (int64, error) {
				_, err := protest.ExactDetectProbs(c, protest.Faults(c), protest.UniformProbs(c))
				return 0, err
			})
		}
	}
}

func (w *serviceWL) close() {
	w.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, hs := range w.https {
			_ = hs.Shutdown(ctx)
		}
		w.served.Wait()
		if w.coord != nil {
			w.coord.Close()
		}
		if w.worker != nil {
			w.worker.Close()
		}
		w.client.CloseIdleConnections()
	})
}
