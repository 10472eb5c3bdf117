package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"fillvoid/internal/cluster"
	"fillvoid/internal/core"
	"fillvoid/internal/interp"
	"fillvoid/internal/mathutil"
	"fillvoid/internal/parallel"
	"fillvoid/internal/pointcloud"
	"fillvoid/internal/recon"
	"fillvoid/internal/server"
	"fillvoid/internal/telemetry"
)

// serveMethods are the methods the serving mixes spread queries over.
var serveMethods = []string{"fcnn", "linear", "shepard", "nearest"}

// hedgeAfter is the cluster's fixed hedge delay. The adaptive default
// (the p95 of recent shard latencies) hedges about one shard in
// fifteen on the 2-core reference box, and the duplicated work made the
// cluster's tail slower (p92 132 ms against 82 ms) and its run-to-run
// spread twice as wide; a fixed delay hedges only stuck shards.
const hedgeAfter = 250 * time.Millisecond

// maxRPS bounds any serving rate the benchmark can reach on the
// reference box; the saturated phase's schedule is sized by it.
const maxRPS = 400

// loadWorkers is the load generator's concurrency: one process, at
// most one in-flight request per core of the 2-core reference box.
const loadWorkers = 2

// nominalShare is the share of the timed phase spent at the nominal
// rate; the rest runs saturated.
const nominalShare = 0.7

// kind is a request class of a serving mix.
type kind int

const (
	kPoints      kind = iota // 64-point list
	kBox                     // ROI box below the cluster's shard threshold
	kBigBox                  // ROI box at or above the shard threshold
	kFull                    // full grid
	kProgressive             // full grid as a progressive NDJSON stream
	kUpload                  // POST /v1/clouds of one of the clouds
)

// mix is a serving workload's request mix. Requests come in blocks
// whose composition is exact: count requests of each (class, method)
// entry, plus uploads. Only the query positions and the sampled data
// vary with the seed, so the measured work does not.
type mix struct {
	entries []mixEntry
	uploads int
}

// mixEntry is one (class, method) cell of a mix; an empty method
// means every method of serveMethods.
type mixEntry struct {
	k      kind
	method string
	count  int
}

func (m mix) block() []request {
	var b []request
	n := map[kind]int{}
	for _, en := range m.entries {
		methods := serveMethods
		if en.method != "" {
			methods = []string{en.method}
		}
		for _, method := range methods {
			for i := 0; i < en.count; i++ {
				b = append(b, request{k: en.k, method: method, size: n[en.k]})
				n[en.k]++
			}
		}
	}
	for i := 0; i < m.uploads; i++ {
		b = append(b, request{k: kUpload})
	}
	return b
}

// serveMix is 40 requests per block. Seven in ten are fast (64-point
// lists on every method, and an upload), so the median falls inside
// one class. The heaviest tenth is four fcnn full grids, so the tail
// percentile falls inside one class too; ROI boxes, a nearest full grid
// and linear and nearest progressive streams sit between.
var serveMix = mix{entries: []mixEntry{
	{kPoints, "", 7},
	{kBox, "", 1},
	{kFull, "fcnn", 4}, {kFull, "nearest", 1},
	{kProgressive, "linear", 1}, {kProgressive, "nearest", 1},
}, uploads: 1}

// clusterMix is 40 requests per block. Most of its work is above the
// shard threshold, fanned out and stitched: five fcnn full grids (the
// heaviest eighth, so the tail percentile falls inside one class) and
// a big box each for linear, shepard and nearest. Most of its requests
// are 64-point lists sent to a replica that does not own the cloud
// (proxied), so the median falls inside one class. One small box per
// method goes to the owner.
var clusterMix = mix{entries: []mixEntry{
	{kPoints, "", 7},
	{kBox, "", 1},
	{kBigBox, "linear", 1}, {kBigBox, "shepard", 1}, {kBigBox, "nearest", 1},
	{kFull, "fcnn", 5},
}, uploads: 0}

// serveSetup is a serving workload's prepared state: the model, the
// clouds (already uploaded) and the running replicas.
type serveSetup struct {
	f        field
	z        sizes
	spec     recon.GridSpec
	grid     server.GridJSON
	model    *core.FCNN
	reg      *recon.Registry
	clouds   []*pointcloud.Cloud
	cloudT   []int
	ids      []string
	uploads  [][]byte
	replicas []*replica
	// ref is the standalone replica cluster answers are checked
	// against (cluster workload only).
	ref       *replica
	pretrainS float64
}

type replica struct {
	srv *server.Server
	cl  *cluster.Cluster
	url string
}

func (s *serveSetup) close() {
	for _, r := range append(s.replicas, s.ref) {
		if r != nil {
			if err := r.srv.Close(); err != nil {
				logf(os.Stderr, "closing replica: %v\n", err)
			}
		}
	}
}

// setupServing pretrains the model, samples the clouds, starts n
// replicas (a cluster when n > 1, plus a standalone reference) on
// ephemeral loopback ports and uploads every cloud.
func setupServing(ctx context.Context, e *env, n, clouds int, client *http.Client) (*serveSetup, error) {
	f := newField(e.seed, e.z)
	start := time.Now()
	model, err := pretrain(e.tr, nil, f.at(e.z.T0), f, e.z)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{f: f, z: e.z, model: model, pretrainS: time.Since(start).Seconds()}
	s.reg = interp.StandardRegistry(0)
	s.reg.RegisterMethod(model)

	// Clouds: timesteps after t0 at 1%, 3% and 5%.
	for i := 0; i < clouds; i++ {
		t := e.z.T0 + 1 + i/len(e.z.Fractions)
		truth := f.at(t)
		if i == 0 {
			s.spec = recon.SpecOf(truth)
			o, sp := s.spec.Origin, s.spec.Spacing
			s.grid = server.GridJSON{
				Dims:    [3]int{s.spec.NX, s.spec.NY, s.spec.NZ},
				Origin:  &[3]float64{o.X, o.Y, o.Z},
				Spacing: &[3]float64{sp.X, sp.Y, sp.Z},
			}
		}
		c, _, err := sample(e.tr, nil, truth, f, e.seed, int64(500+i), e.z.Fractions[i%len(e.z.Fractions)])
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(wireCloud(c))
		if err != nil {
			return nil, err
		}
		s.clouds = append(s.clouds, c)
		s.cloudT = append(s.cloudT, t)
		s.uploads = append(s.uploads, body)
		s.ids = append(s.ids, recon.HashCloud(c).String())
	}

	if err := s.startReplicas(n); err != nil {
		s.close()
		return nil, err
	}
	targets := []*replica{s.replicas[0]}
	if s.ref != nil {
		targets = append(targets, s.ref)
	}
	for _, r := range targets {
		for i, body := range s.uploads {
			rep := post(ctx, client, r.url+"/v1/clouds", body, false)
			if rep.err != nil {
				s.close()
				return nil, fmt.Errorf("upload cloud %d: %w", i, rep.err)
			}
		}
	}
	return s, nil
}

// startReplicas boots the replicas. Listener addresses exist only
// after Start, so cluster members begin as placeholders and are bound
// with SetMembers, as the serve command does.
func (s *serveSetup) startReplicas(n int) error {
	placeholders := make([]cluster.Member, n)
	for i := range placeholders {
		placeholders[i] = cluster.Member{ID: fmt.Sprintf("r%d", i)}
	}
	for i := 0; i < n; i++ {
		cfg := server.Config{Registry: s.reg, Telemetry: telemetry.NewRegistry()}
		var cl *cluster.Cluster
		if n > 1 {
			var err error
			cl, err = cluster.New(cluster.Config{
				Self: placeholders[i].ID, Members: placeholders,
				ShardThreshold: s.z.ShardThreshold, HedgeAfter: hedgeAfter, Telemetry: cfg.Telemetry,
			})
			if err != nil {
				return err
			}
			cfg.Cluster = cl
		}
		r, err := startReplica(cfg)
		if err != nil {
			return err
		}
		r.cl = cl
		s.replicas = append(s.replicas, r)
	}
	if n == 1 {
		return nil
	}
	members := make([]cluster.Member, n)
	for i, r := range s.replicas {
		members[i] = cluster.Member{ID: placeholders[i].ID, URL: r.url}
	}
	for _, r := range s.replicas {
		if err := r.cl.SetMembers(members); err != nil {
			return err
		}
	}
	ref, err := startReplica(server.Config{Registry: s.reg, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		return err
	}
	s.ref = ref
	return nil
}

func startReplica(cfg server.Config) (*replica, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return &replica{srv: srv, url: "http://" + srv.Addr()}, nil
}

// request is one scheduled operation of a serving run.
type request struct {
	k      kind
	method string
	cloud  int
	region recon.Region
	body   []byte
	// entry is the replica the request is sent to.
	entry int
	// due is when the open-loop schedule sends it, from phase start.
	due time.Duration
	// check keeps the answer for the output checks.
	check bool
	// size picks the box shape of box requests.
	size int
}

// reply is what the load generator observed for one request.
type reply struct {
	shed      bool
	err       error
	latencyMS float64 // completion minus due time
	serviceMS float64 // completion minus send time
	lateMS    float64 // send time minus due time
	bytes     int
	engineMS  float64
	cached    bool
	shards    int
	firstMS   float64 // progressive: send to first full-resolution chunk
	values    []float64
}

// schedule draws a phase's requests: count requests due at rate per
// second, in blocks of the mix. Each block is interleaved by a fixed
// shuffle, and clouds follow a Zipf(1.2) popularity drawn by a
// golden-ratio sequence, so every run sends the same classes, methods
// and clouds in the same order; rng (the run seed) draws the query
// positions and picks the checked subset.
func (s *serveSetup) schedule(rng *rand.Rand, m mix, count int, rate float64, clustered bool) ([]*request, error) {
	block := m.block()
	order := rand.New(rand.NewSource(int64(len(block))))
	cdf := zipfCDF(len(s.clouds), 1.2)
	var reqs []*request
	for len(reqs) < count {
		order.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, b := range block {
			if len(reqs) == count {
				break
			}
			u := math.Mod(float64(len(reqs)+1)*0.6180339887498949, 1)
			cloud := 0
			for cloud < len(cdf)-1 && u > cdf[cloud] {
				cloud++
			}
			r, err := s.newRequest(rng, b, cloud, clustered)
			if err != nil {
				return nil, err
			}
			r.due = time.Duration(float64(len(reqs)) / rate * float64(time.Second))
			r.check = rng.Intn(6) == 0
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}

// boxShapes are the small (below the shard threshold) and big box
// shapes as fractions of the grid, taken in turn.
var (
	smallBoxes = [][3]float64{{0.25, 0.25, 0.5}, {1.0 / 3, 1.0 / 3, 0.5}, {0.4, 0.4, 1.0 / 3}}
	bigBoxes   = [][3]float64{{0.5, 0.5, 1}, {1, 0.5, 0.5}, {0.75, 0.75, 2.0 / 3}}
)

// newRequest builds the request for block entry b against cloud.
func (s *serveSetup) newRequest(rng *rand.Rand, b request, cloud int, clustered bool) (*request, error) {
	r := &request{k: b.k, method: b.method, size: b.size, cloud: cloud}
	spec := s.spec
	switch r.k {
	case kUpload:
		r.body = s.uploads[cloud]
		r.entry = rng.Intn(len(s.replicas))
		return r, nil
	case kPoints:
		pts := make([]mathutil.Vec3, 64)
		bb := spec.Bounds()
		for i := range pts {
			pts[i] = mathutil.Vec3{
				X: bb.Min.X + rng.Float64()*(bb.Max.X-bb.Min.X),
				Y: bb.Min.Y + rng.Float64()*(bb.Max.Y-bb.Min.Y),
				Z: bb.Min.Z + rng.Float64()*(bb.Max.Z-bb.Min.Z),
			}
		}
		r.region = recon.PointList(pts)
	case kBox:
		r.region = randomBox(rng, spec, smallBoxes[r.size%len(smallBoxes)])
	case kBigBox:
		r.region = randomBox(rng, spec, bigBoxes[r.size%len(bigBoxes)])
	case kFull, kProgressive:
		r.region = recon.Full(spec)
	}
	if clustered {
		r.entry = s.entryFor(rng, r)
	}
	req := server.ReconstructRequest{Method: r.method, CloudID: s.ids[cloud], Grid: s.grid}
	switch {
	case r.region.IsPoints():
		req.Region.Points = make([][3]float64, len(r.region.Points))
		for i, p := range r.region.Points {
			req.Region.Points[i] = [3]float64{p.X, p.Y, p.Z}
		}
	case !r.region.IsFull(spec):
		req.Region.Box = &[6]int{r.region.I0, r.region.J0, r.region.K0, r.region.I1, r.region.J1, r.region.K1}
	}
	req.Progressive = r.k == kProgressive
	var err error
	r.body, err = json.Marshal(&req)
	return r, err
}

// entryFor picks the replica a clustered query enters at: small point
// queries go to a replica that does not own the cloud (so they are
// proxied), small boxes to the owner (served locally), and fanned-out
// queries to any replica.
func (s *serveSetup) entryFor(rng *rand.Rand, r *request) int {
	key := recon.PlanKey{Cloud: recon.HashCloud(s.clouds[r.cloud]), Spec: s.spec}
	owner, _ := s.replicas[0].cl.Owner(key.Hash())
	ownerIdx := 0
	for i, rep := range s.replicas {
		if rep.url == owner.URL {
			ownerIdx = i
		}
	}
	switch r.k {
	case kPoints:
		return (ownerIdx + 1 + rng.Intn(len(s.replicas)-1)) % len(s.replicas)
	case kBox:
		return ownerIdx
	default:
		return rng.Intn(len(s.replicas))
	}
}

// randomBox places a box of the given shape (fractions of the grid
// per axis, at least one node) at a random position.
func randomBox(rng *rand.Rand, spec recon.GridSpec, shape [3]float64) recon.Region {
	size := func(n int, f float64) int { return max(1, min(n, int(f*float64(n)))) }
	sx, sy, sz := size(spec.NX, shape[0]), size(spec.NY, shape[1]), size(spec.NZ, shape[2])
	i0, j0, k0 := rng.Intn(spec.NX-sx+1), rng.Intn(spec.NY-sy+1), rng.Intn(spec.NZ-sz+1)
	return recon.Box(i0, j0, k0, i0+sx, j0+sy, k0+sz)
}

// drive runs one phase of requests in schedule order on loadWorkers
// workers. Open loop (deadline zero): each request is sent when due,
// whatever the system's state, and timed from when it was due.
// Saturated (deadline set): offered load is above capacity by
// construction, so every request is already due when a worker frees
// up; workers send back to back until the deadline and each request is
// timed from when it was sent. Requests never sent are marked shed.
func drive(ctx context.Context, e *env, client *http.Client, s *serveSetup, phase *span, reqs []*request, deadline time.Time, clustered bool) []reply {
	replies := make([]reply, len(reqs))
	for i := range replies {
		replies[i].shed = true
	}
	saturated := !deadline.IsZero()
	start := time.Now()
	var next atomic.Int64
	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) || (saturated && time.Now().After(deadline)) {
				return
			}
			r := reqs[i]
			due := start.Add(r.due)
			if !saturated {
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
			}
			sent := time.Now()
			sp := e.tr.start(phase, spanName(r.k, clustered))
			rep := send(ctx, client, s.replicas[r.entry].url, r)
			if saturated {
				rep.latencyMS = ms(time.Since(sent))
			} else {
				rep.latencyMS = ms(time.Since(due))
				rep.lateMS = ms(sent.Sub(due))
				sp.set("late_ms", rep.lateMS)
			}
			sp.set("bytes", float64(rep.bytes))
			if r.k != kUpload && r.k != kProgressive {
				sp.set("engine_ms", rep.engineMS)
				sp.set("cached", b2f(rep.cached))
			}
			if r.k == kProgressive {
				sp.set("first_ms", rep.firstMS)
			}
			if rep.shards > 0 {
				sp.set("shards", float64(rep.shards))
			}
			sp.end()
			replies[i] = rep
		}
	}
	parallel.Fork(worker, worker)
	return replies
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// spanName is the per-route span of a request: server.* for the single
// replica, cluster.* (by route) for the cluster.
func spanName(k kind, clustered bool) string {
	if !clustered {
		switch k {
		case kPoints:
			return "server.points"
		case kBox:
			return "server.box"
		case kFull:
			return "server.full"
		case kProgressive:
			return "server.progressive"
		default:
			return "server.upload"
		}
	}
	switch k {
	case kPoints:
		return "cluster.proxy"
	case kBox:
		return "cluster.local"
	case kUpload:
		return "cluster.upload"
	default:
		return "cluster.fanout"
	}
}

// send issues one request and reads its whole answer.
func send(ctx context.Context, client *http.Client, base string, r *request) reply {
	switch r.k {
	case kUpload:
		return post(ctx, client, base+"/v1/clouds", r.body, false)
	case kProgressive:
		return postProgressive(ctx, client, base+"/v1/reconstruct", r.body, r.check)
	default:
		return post(ctx, client, base+"/v1/reconstruct", r.body, r.check)
	}
}

// skipJSON consumes a JSON value without building it.
type skipJSON struct{}

func (*skipJSON) UnmarshalJSON([]byte) error { return nil }

// readBufs recycles answer buffers, so the in-process client does not
// add a fresh megabyte of garbage per full grid to the heap the
// server's collector also has to scan.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post sends one JSON body and reads the answer. The reconstructed
// values are decoded only when keep is set (checked requests); other
// answers are scanned but not built, so the client spends little of
// the shared CPU.
func post(ctx context.Context, client *http.Client, url string, body []byte, keep bool) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	b := buf.Bytes()
	rep := reply{serviceMS: ms(time.Since(start)), bytes: len(b)}
	if err != nil {
		rep.err = err
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("%s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
		return rep
	}
	var out struct {
		Values     any     `json:"values"`
		PlanCached bool    `json:"plan_cached"`
		DurationMS float64 `json:"duration_ms"`
		Shards     int     `json:"shards"`
	}
	var vals []float64
	if keep {
		out.Values = &vals
	} else {
		out.Values = &skipJSON{}
	}
	if err := json.Unmarshal(b, &out); err != nil {
		rep.err = fmt.Errorf("%s: decoding answer: %w", url, err)
		return rep
	}
	rep.engineMS, rep.cached, rep.shards, rep.values = out.DurationMS, out.PlanCached, out.Shards, vals
	return rep
}

// progressiveLine is one NDJSON record of a progressive stream.
type progressiveLine struct {
	Type   string `json:"type"`
	Dims   [3]int `json:"dims"`
	Box    [6]int `json:"box"`
	Values any    `json:"values"`
	Error  string `json:"error"`
}

// postProgressive reads a progressive stream, timing the first
// full-resolution chunk. With keep the chunks are stitched into the
// region's values (x-fastest) by their boxes.
func postProgressive(ctx context.Context, client *http.Client, url string, body []byte, keep bool) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body) //lint:allow errdrop: the status is the error being reported
		return reply{err: fmt.Errorf("%s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))}
	}
	var rep reply
	var dims [3]int
	var chunks []progressiveChunk
	done := false
	sc := bufio.NewScanner(resp.Body)
	buf := readBufs.Get().(*bytes.Buffer)
	defer readBufs.Put(buf)
	buf.Reset()
	sc.Buffer(buf.AvailableBuffer()[:0:buf.Cap()], 1<<28)
	for sc.Scan() {
		rep.bytes += len(sc.Bytes()) + 1
		var vals []float64
		line := progressiveLine{Values: &skipJSON{}}
		if keep {
			line.Values = &vals
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return reply{err: fmt.Errorf("%s: decoding stream: %w", url, err)}
		}
		switch line.Type {
		case "header":
			dims = line.Dims
		case "chunk":
			if rep.firstMS == 0 {
				rep.firstMS = ms(time.Since(start))
			}
			if keep {
				chunks = append(chunks, progressiveChunk{box: line.Box, values: vals})
			}
		case "done":
			done = true
		case "error":
			return reply{err: fmt.Errorf("%s: stream error: %s", url, line.Error)}
		}
	}
	if err := sc.Err(); err != nil {
		return reply{err: err}
	}
	if !done {
		return reply{err: fmt.Errorf("%s: stream ended without a done record", url)}
	}
	rep.serviceMS = ms(time.Since(start))
	if keep {
		if rep.values, err = stitch(dims, chunks); err != nil {
			return reply{err: fmt.Errorf("%s: %w", url, err)}
		}
	}
	return rep
}

// progressiveChunk is one kept slab of a progressive stream.
type progressiveChunk struct {
	box    [6]int
	values []float64
}

// stitch places each chunk's values (x-fastest within its absolute
// box) into a region of dims whose lower corner is the lowest chunk
// corner. Every node must be written exactly once.
func stitch(dims [3]int, chunks []progressiveChunk) ([]float64, error) {
	n := dims[0] * dims[1] * dims[2]
	if len(chunks) == 0 || n <= 0 || n > 1<<26 {
		return nil, fmt.Errorf("cannot stitch %d chunks into %v", len(chunks), dims)
	}
	lo := [3]int{chunks[0].box[0], chunks[0].box[1], chunks[0].box[2]}
	for _, c := range chunks {
		for a := 0; a < 3; a++ {
			lo[a] = min(lo[a], c.box[a])
		}
	}
	out := make([]float64, n)
	seen := make([]bool, n)
	for _, c := range chunks {
		b := c.box
		bx, by, bz := b[3]-b[0], b[4]-b[1], b[5]-b[2]
		if bx <= 0 || by <= 0 || bz <= 0 || bx*by*bz != len(c.values) {
			return nil, fmt.Errorf("chunk box %v holds %d values", b, len(c.values))
		}
		for m, v := range c.values {
			i := b[0] - lo[0] + m%bx
			j := b[1] - lo[1] + (m/bx)%by
			k := b[2] - lo[2] + m/(bx*by)
			if i >= dims[0] || j >= dims[1] || k >= dims[2] {
				return nil, fmt.Errorf("chunk box %v outside region %v", b, dims)
			}
			idx := i + dims[0]*(j+dims[1]*k)
			if seen[idx] {
				return nil, fmt.Errorf("chunk box %v overlaps another chunk", b)
			}
			seen[idx] = true
			out[idx] = v
		}
	}
	for idx, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("stitched region misses node %d", idx)
		}
	}
	return out, nil
}

// runServe drives one replica.
func runServe(ctx context.Context, e *env, seconds float64, setups int) (*outcome, error) {
	return runServing(ctx, e, seconds, setups, 1, e.z.ServeClouds, serveMix, e.z.ServeRPS)
}

// runCluster drives a three-replica cluster.
func runCluster(ctx context.Context, e *env, seconds float64, setups int) (*outcome, error) {
	return runServing(ctx, e, seconds, setups, 3, e.z.ClusterClouds, clusterMix, e.z.ClusterRPS)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: loadWorkers,
		MaxConnsPerHost:     loadWorkers,
		DisableCompression:  true,
	}}
}

// runServing sets up n replicas, then runs the nominal-rate phase
// (latency) and the saturated phase (goodput), then checks the kept
// answers against in-process references.
func runServing(ctx context.Context, e *env, seconds float64, setups, n, clouds int, m mix, rate float64) (*outcome, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var pretrainS []float64
	s, setupS, err := measureSetups(setups, func() (*serveSetup, error) {
		s, err := setupServing(ctx, e, n, clouds, client)
		if err == nil {
			pretrainS = append(pretrainS, s.pretrainS)
		}
		return s, err
	}, func(s *serveSetup) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()
	clustered := n > 1
	if clustered {
		warm := time.Now()
		if err := s.warmCluster(ctx, client); err != nil {
			return nil, err
		}
		warmMS := ms(time.Since(warm))
		defer logf(e.log, "cluster warm-up: %.0f ms\n", warmMS)
	}

	rng := rand.New(rand.NewSource(e.seed))
	// The nominal phase is whole blocks, so it has the mix's exact
	// composition; the saturated phase gets the rest of the time (at
	// least a quarter) and a schedule longer than it can finish.
	blockLen := len(m.block())
	nomCount := blockLen * int(math.Max(1, math.Round(seconds*nominalShare*rate/float64(blockLen))))
	nominal, err := s.schedule(rng, m, nomCount, rate, clustered)
	if err != nil {
		return nil, err
	}
	satSecs := math.Max(seconds/4, seconds-float64(nomCount)/rate)
	overload, err := s.schedule(rng, m, blockLen*int(math.Ceil(satSecs*maxRPS/float64(blockLen))), maxRPS, clustered)
	if err != nil {
		return nil, err
	}
	hedges0, err := s.hedges(ctx, client)
	if err != nil {
		return nil, err
	}

	mem := newMemMeter()
	stop := make(chan struct{})
	var nomReplies, overReplies []reply
	var allocMB float64
	var overElapsed time.Duration
	parallel.Fork(func() {
		defer close(stop)
		sp := e.tr.start(nil, "loadgen.nominal")
		a0 := allocBytes()
		nomReplies = drive(ctx, e, client, s, sp, nominal, time.Time{}, clustered)
		allocMB = float64(allocBytes()-a0) / (1 << 20)
		sp.end()
		sp = e.tr.start(nil, "loadgen.saturated")
		t0 := time.Now()
		overReplies = drive(ctx, e, client, s, sp, overload, t0.Add(time.Duration(satSecs*float64(time.Second))), clustered)
		overElapsed = time.Since(t0)
		sp.end()
	}, func() { mem.poll(stop, time.Second) })

	o := &outcome{samples: map[string]int{}}
	var lat []float64
	for _, r := range nomReplies {
		o.attempted++
		if r.err != nil {
			o.failed++
			logf(e.log, "request failed: %v\n", r.err)
			continue
		}
		lat = append(lat, r.latencyMS)
	}
	onTime := 0
	for _, r := range overReplies {
		if r.shed {
			continue
		}
		o.attempted++
		if r.err != nil {
			o.failed++
			logf(e.log, "request failed: %v\n", r.err)
		} else if r.latencyMS <= e.z.LimitMS {
			onTime++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if o.failed > 0 {
		return o, fmt.Errorf("%d of %d requests failed", o.failed, o.attempted)
	}
	hedges1, err := s.hedges(ctx, client)
	if err != nil {
		return nil, err
	}
	if clustered {
		hsp := e.tr.start(nil, "cluster.status")
		hsp.set("hedges", float64(hedges1-hedges0))
		hsp.end()
	}

	snr, err := s.checkAnswers(ctx, e, client, append(nominal, overload...), append(nomReplies, overReplies...), clustered)
	if err != nil {
		return nil, err
	}
	q := tailQuantile(len(lat))
	o.samples["latency"] = len(lat)
	o.samples["latency_tail_permille"] = int(math.Round(1000 * q))
	o.samples["saturated_sent"] = o.attempted - len(lat)
	o.samples["saturated_on_time"] = onTime
	o.samples["pretrain_s"] = len(pretrainS)
	o.samples["hedges"] = int(hedges1 - hedges0)
	o.e2e = map[string]float64{
		"setup_s":        median(setupS),
		"pretrain_s":     median(pretrainS),
		"latency_p50_ms": median(lat),
		"latency_p99_ms": quantile(lat, q),
		"goodput_rps":    float64(onTime) / overElapsed.Seconds(),
		"snr_db":         snr,
		"alloc_mb":       allocMB,
		"heap_peak_mb":   median(mem.peakMB),
	}
	return o, nil
}

// warmCluster builds every replica's plan for every cloud, with the
// Delaunay tetrahedralization linear needs and the nearest-sample
// table, by fanning out one box just above the shard threshold per
// cloud and method: caches fill and lazy set-up finishes before the
// timed phase.
func (s *serveSetup) warmCluster(ctx context.Context, client *http.Client) error {
	side := int(math.Ceil(math.Sqrt(float64(s.z.ShardThreshold) / float64(s.spec.NZ))))
	nx, ny := min(side, s.spec.NX), min(side, s.spec.NY)
	if nx*ny*s.spec.NZ < s.z.ShardThreshold {
		return nil
	}
	for c := range s.clouds {
		for _, method := range []string{"linear", "nearest"} {
			body, err := json.Marshal(&server.ReconstructRequest{
				Method: method, CloudID: s.ids[c], Grid: s.grid,
				Region: server.RegionJSON{Box: &[6]int{0, 0, 0, nx, ny, s.spec.NZ}},
			})
			if err != nil {
				return err
			}
			if rep := post(ctx, client, s.replicas[c%len(s.replicas)].url+"/v1/reconstruct", body, false); rep.err != nil {
				return fmt.Errorf("warm-up: %w", rep.err)
			}
		}
	}
	return nil
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: metricAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hedges sums the cluster.hedges counter over the replicas (0 for a
// single replica, which has no cluster endpoint).
func (s *serveSetup) hedges(ctx context.Context, client *http.Client) (int64, error) {
	if len(s.replicas) < 2 {
		return 0, nil
	}
	var total int64
	for _, r := range s.replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/cluster", nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		var st cluster.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close() //lint:allow errdrop: the body was read; closing it cannot lose data
		if err != nil {
			return 0, fmt.Errorf("cluster status: %w", err)
		}
		total += st.Counters["cluster.hedges"]
	}
	return total, nil
}

// checkAnswers verifies every kept answer. Each is compared bit for
// bit with recon.Reconstruct run in-process on the same cloud, method
// and region form; progressive streams are stitched first. For the
// cluster each kept answer is also compared with the standalone
// replica's answer to the same request, and the fan-out overhead is
// timed against it. It returns the SNR of the fcnn full-grid answers
// of the most popular cloud against the truth.
func (s *serveSetup) checkAnswers(ctx context.Context, e *env, client *http.Client, reqs []*request, reps []reply, clustered bool) (float64, error) {
	plans := map[int]*recon.Plan{}
	planFor := func(c int) (*recon.Plan, error) {
		if p, ok := plans[c]; ok {
			return p, nil
		}
		p, err := recon.NewPlan(s.clouds[c], s.spec)
		plans[c] = p
		return p, err
	}
	checked := 0
	for i, r := range reqs {
		rep := reps[i]
		if !r.check || r.k == kUpload || rep.shed {
			continue
		}
		checked++
		plan, err := planFor(r.cloud)
		if err != nil {
			return 0, err
		}
		m, err := s.reg.Get(r.method)
		if err != nil {
			return 0, err
		}
		want, err := recon.Reconstruct(ctx, m, plan, r.region)
		if err != nil {
			return 0, err
		}
		if err := sameBits(want.Data, rep.values); err != nil {
			return 0, checkf("%s %s answer differs from in-process recon.Reconstruct: %v", spanName(r.k, clustered), r.method, err)
		}
		if r.k == kProgressive {
			plain := *r
			plain.k = kFull
			if plain.body, err = progressiveOff(r.body); err != nil {
				return 0, err
			}
			nonProg := send(ctx, client, s.replicas[r.entry].url, &plain)
			if nonProg.err != nil {
				return 0, nonProg.err
			}
			if err := sameBits(nonProg.values, rep.values); err != nil {
				return 0, checkf("stitched progressive stream differs from the non-progressive answer: %v", err)
			}
		}
		if clustered {
			if err := s.checkAgainstStandalone(ctx, client, r, rep); err != nil {
				return 0, err
			}
		}
	}
	if checked == 0 {
		return 0, checkf("no answers were kept for checking")
	}
	if clustered && e.tr != nil {
		if err := s.replayOverhead(ctx, e, client, reqs); err != nil {
			return 0, err
		}
	}
	return s.fcnnSNR(ctx, planFor)
}

// checkAgainstStandalone replays a clustered request on the standalone
// replica and requires the same bits.
func (s *serveSetup) checkAgainstStandalone(ctx context.Context, client *http.Client, r *request, rep reply) error {
	keep := *r
	keep.check = true
	ref := send(ctx, client, s.ref.url, &keep)
	if ref.err != nil {
		return ref.err
	}
	if err := sameBits(ref.values, rep.values); err != nil {
		return checkf("%s answer differs from the standalone replica: %v", spanName(r.k, true), err)
	}
	return nil
}

// fanoutReplays is how many fanned-out requests the traced run replays
// to time the cluster's overhead.
const fanoutReplays = 4

// replayOverhead replays the first fanned-out requests of the schedule,
// unloaded, on the cluster and on the standalone replica, and records
// the difference of their service times as the cluster overhead.
func (s *serveSetup) replayOverhead(ctx context.Context, e *env, client *http.Client, reqs []*request) error {
	n := 0
	for _, r := range reqs {
		if n == fanoutReplays {
			break
		}
		if r.k != kFull && r.k != kBigBox {
			continue
		}
		n++
		viaCluster := send(ctx, client, s.replicas[r.entry].url, r)
		if viaCluster.err != nil {
			return viaCluster.err
		}
		alone := send(ctx, client, s.ref.url, r)
		if alone.err != nil {
			return alone.err
		}
		sp := e.tr.start(nil, "cluster.replay")
		sp.set("overhead_ms", viaCluster.serviceMS-alone.serviceMS)
		sp.end()
	}
	return nil
}

// fcnnSNR scores in-process fcnn full-grid reconstructions of the
// most popular timestep's clouds (one per sampling fraction) against
// the truth and returns their mean.
func (s *serveSetup) fcnnSNR(ctx context.Context, planFor func(int) (*recon.Plan, error)) (float64, error) {
	var snrs []float64
	for c := 0; c < min(len(s.clouds), len(s.z.Fractions)); c++ {
		plan, err := planFor(c)
		if err != nil {
			return 0, err
		}
		vol, err := recon.Reconstruct(ctx, s.model, plan, recon.Full(s.spec))
		if err != nil {
			return 0, err
		}
		snr, err := scoreRegion(s.f.at(s.cloudT[c]), vol, recon.Full(s.spec), s.spec)
		if err != nil {
			return 0, err
		}
		if err := s.z.checkSNR("fcnn", snr); err != nil {
			return 0, err
		}
		snrs = append(snrs, snr)
	}
	return mean(snrs), nil
}

// progressiveOff rewrites a request body to its non-progressive form.
func progressiveOff(body []byte) ([]byte, error) {
	var req server.ReconstructRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	req.Progressive = false
	return json.Marshal(&req)
}

// sameBits requires two value slices to be bit-identical.
func sameBits(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("value %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
