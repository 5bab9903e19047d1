package main

import (
	"strconv"
	"strings"
)

// The generator derives every input of every workload from the
// workload seed alone: the program under test only ever sees the bytes
// produced here. Specs are written as JSON text by the generator itself
// (not by marshalling the program's own types), so a change to the
// program's encoders cannot silently change the benchmark's inputs.

// Predict workload shape.
const (
	// predictHotPool is the number of distinct hot specs. It is well
	// below serve's default CacheEntries (128), so hot requests stay
	// cache reads while fresh requests churn the rest of the LRU.
	predictHotPool = 32
	// predictHotShare is the probability a request comes from the hot
	// pool; the rest are fresh parameter points that need a solve.
	predictHotShare = 0.5
)

// Jobs workload shape.
const (
	// jobKindsN is the number of job kinds (jobTemplates); every block
	// of jobKindsN consecutive jobs holds each kind once.
	jobKindsN = 4
	// jobHotPerBlock of every jobHotBlock consecutive jobs reuse a hot
	// study of their kind, which answers them from the result cache or
	// coalesces them onto an identical in-flight job. A fixed count per
	// block keeps the hot share the same in every run.
	jobHotPerBlock, jobHotBlock = 3, 10
	// jobHotSeeds is the number of hot studies per kind.
	jobHotSeeds = 4
	// Job horizons (sim_time_us) are drawn per study from this range,
	// centred on the examples' 5e7 µs. Continuous horizons spread each
	// kind's service time, so the latency percentiles fall inside a
	// smooth distribution rather than in a gap between four clusters.
	jobHorizonMin, jobHorizonMax = 30_000_000, 70_000_000
	// jobReps is the fixed replication count of every job.
	jobReps = 4
)

// campaignVariants is the number of campaign input variants. Each has
// a stored reference digest (campaign_ref.json); the workload seed
// picks the order the variants run in.
const campaignVariants = 16

// Stream labels keep the sub-streams of different inputs independent.
const (
	labelPredict uint64 = iota + 1
	labelPredictHot
	labelJobKind
	labelJob
	labelJobHot
	labelJobHotSlot
	labelCampaign
)

// Generator produces the inputs of every workload from one seed.
type Generator struct {
	seed uint64
}

// NewGenerator returns the generator of a workload seed.
func NewGenerator(seed uint64) *Generator { return &Generator{seed: seed} }

// splitmix is SplitMix64: small, fast and fully determined by its
// state, which is all a benchmark input stream needs.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns an integer in [lo, hi].
func (r *splitmix) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// float returns a value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// perm returns a shuffled permutation of 0..n-1.
func (r *splitmix) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stream returns the sub-stream of one labelled input.
func (g *Generator) stream(label, idx uint64) *splitmix {
	r := &splitmix{s: g.seed}
	r.s = r.next() ^ label*0xd1b54a32d192ed03
	r.s = r.next() ^ idx*0x8cb92ba72f3d8dd7
	return r
}

// PredictReq is one POST /v1/predict request.
type PredictReq struct {
	// Spec is the scenario spec, Body the request body wrapping it.
	Spec, Body []byte
	// Hot is the hot-pool index, or -1 for a fresh parameter point.
	Hot int
}

// PredictRequest returns client's k-th request. Each client has its
// own stream, so the inputs do not depend on how the clients
// interleave.
func (g *Generator) PredictRequest(client, k int) PredictReq {
	r := g.stream(labelPredict, uint64(client)<<40|uint64(k))
	if r.float() < predictHotShare {
		h := r.intn(predictHotPool)
		return g.PredictHot(h)
	}
	return wrapPredict(predictSpec(r), -1)
}

// PredictHot returns hot-pool entry h.
func (g *Generator) PredictHot(h int) PredictReq {
	return wrapPredict(predictSpec(g.stream(labelPredictHot, uint64(h))), h)
}

func wrapPredict(spec []byte, hot int) PredictReq {
	body := make([]byte, 0, len(spec)+10)
	body = append(body, `{"spec":`...)
	body = append(body, spec...)
	body = append(body, '}')
	return PredictReq{Spec: spec, Body: body, Hot: hot}
}

// predictSpec draws one analytic-model operating point from the four
// regimes of examples/scenarios/model-*.json: saturated, heterogeneous
// CW/DC, Poisson-loaded and a CA0–CA3 priority mix. Station counts,
// error probabilities and loads are drawn per point, at a resolution
// that makes a repeated fresh point vanishingly rare.
func predictSpec(r *splitmix) []byte {
	b := make([]byte, 0, 400)
	switch r.intn(4) {
	case 0:
		b = append(b, `{"name":"bench-saturated","engine":"model","sim_time_us":5e7,"stations":[`...)
		b = group(b, r.between(1, 30), "", nil, 0, float64(r.between(0, 300000))/1e6)
	case 1:
		c := 4 << r.intn(3)
		b = append(b, `{"name":"bench-heterogeneous","engine":"model","sim_time_us":5e7,"stations":[`...)
		b = group(b, r.between(1, 4), "", nil, 0, 0)
		b = append(b, ',')
		b = appendCWDC(b, r.between(1, 4), c, float64(r.between(0, 200000))/1e6)
	case 2:
		b = append(b, `{"name":"bench-poisson","engine":"model","sim_time_us":5e7,"stations":[`...)
		b = group(b, r.between(2, 20), "", nil, r.between(5000, 200000), 0)
	default:
		b = append(b, `{"name":"bench-priority-mix","engine":"model","sim_time_us":5e7,"stations":[`...)
		b = group(b, r.between(1, 4), "CA1", nil, r.between(10000, 100000), 0)
		b = append(b, ',')
		b = group(b, 1, "CA3", nil, r.between(50000, 300000), 0)
		b = append(b, ',')
		b = group(b, r.between(1, 3), "CA0", nil, r.between(20000, 200000), 0)
	}
	return append(b, "]}"...)
}

// group appends one station group. A zero interarrival means
// saturated; extra is spliced in verbatim before the closing brace.
func group(b []byte, count int, priority string, extra []byte, interarrival int, errorProb float64) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	if priority != "" {
		b = append(b, `,"priority":"`...)
		b = append(b, priority...)
		b = append(b, '"')
	}
	if interarrival > 0 {
		b = append(b, `,"traffic":{"kind":"poisson","mean_interarrival_us":`...)
		b = strconv.AppendInt(b, int64(interarrival), 10)
		b = append(b, '}')
	}
	if errorProb > 0 {
		b = append(b, `,"error_prob":`...)
		b = strconv.AppendFloat(b, errorProb, 'g', -1, 64)
	}
	b = append(b, extra...)
	return append(b, '}')
}

// appendCWDC appends an aggressive small-CW group with deferral
// disabled, the capture-effect side of the coexistence study.
func appendCWDC(b []byte, count, cw0 int, errorProb float64) []byte {
	extra := []byte(`,"cw":[`)
	for i := 0; i < 4; i++ {
		if i > 0 {
			extra = append(extra, ',')
		}
		extra = strconv.AppendInt(extra, int64(cw0<<i), 10)
	}
	extra = append(extra, `],"dc":[1048576,1048576,1048576,1048576]`...)
	return group(b, count, "", extra, 0, errorProb)
}

// Job kinds: two slot-synchronous sim specs dominated by saturated
// contention, two event-driven mac specs dominated by idle
// fast-forward. The templates follow examples/scenarios/ of the same
// names; %SEED% and %HORIZON% are replaced per study.
var jobTemplates = [jobKindsN]struct{ kind, spec string }{
	{"heterogeneous", `{"name":"heterogeneous","engine":"sim","sim_time_us":%HORIZON%,"seed":%SEED%,"stations":[{"count":2},{"count":2,"cw":[4,8,16,32],"dc":[1048576,1048576,1048576,1048576]}]}`},
	{"control-variate", `{"name":"control-variate","engine":"sim","sim_time_us":%HORIZON%,"seed":%SEED%,"variance_reduction":{"kind":"control_variate"},"stations":[{"count":3,"error_prob":0.2}]}`},
	{"poisson-load", `{"name":"poisson-load","engine":"mac","sim_time_us":%HORIZON%,"seed":%SEED%,"stations":[{"count":2,"traffic":{"kind":"poisson","mean_interarrival_us":20000}},{"count":1}]}`},
	{"priority-beacons", `{"name":"priority-beacons","engine":"mac","sim_time_us":%HORIZON%,"seed":%SEED%,"beacon_period_us":33330,"stations":[{"count":3,"burst_mpdus":2},{"count":1,"priority":"CA3","traffic":{"kind":"poisson","mean_interarrival_us":100000},"frame_us":150}]}`},
}

// JobReq is one POST /v1/jobs request.
type JobReq struct {
	// Kind indexes jobTemplates.
	Kind int
	// Seed and Horizon (µs) pick the study; Hot marks one of the kind's
	// hot studies.
	Seed    uint64
	Horizon int
	Hot     bool
	// Spec is the scenario spec, Body the request body.
	Spec, Body []byte
}

// JobRequest returns the k-th job of the open loop. Kinds come in
// blocks of four, each block a seeded shuffle of all four kinds, and
// hot jobs in blocks of jobHotBlock, so every run carries the same mix
// whatever its length.
func (g *Generator) JobRequest(k int) JobReq {
	kind := g.stream(labelJobKind, uint64(k/jobKindsN)).perm(jobKindsN)[k%jobKindsN]
	req := JobReq{Kind: kind}
	r := g.stream(labelJob, uint64(k))
	if g.stream(labelJobHotSlot, uint64(k/jobHotBlock)).perm(jobHotBlock)[k%jobHotBlock] < jobHotPerBlock {
		req.Hot = true
		h := g.stream(labelJobHot, uint64(kind*jobHotSeeds+r.intn(jobHotSeeds)))
		req.Seed = h.next() >> 2
		req.Horizon = h.between(jobHorizonMin, jobHorizonMax)
	} else {
		req.Seed = r.next()>>1 | 1<<62 // never collides with a hot seed
		req.Horizon = r.between(jobHorizonMin, jobHorizonMax)
	}
	req.Spec = jobSpec(kind, req.Seed, req.Horizon)
	body := append([]byte(`{"spec":`), req.Spec...)
	body = append(body, `,"reps":`...)
	body = strconv.AppendInt(body, jobReps, 10)
	req.Body = append(body, '}')
	return req
}

func jobSpec(kind int, seed uint64, horizon int) []byte {
	return []byte(strings.NewReplacer("%SEED%", strconv.FormatUint(seed, 10), "%HORIZON%", strconv.Itoa(horizon)).
		Replace(jobTemplates[kind].spec))
}

// CampaignOrder returns the order in which a run visits the campaign
// variants: a seeded permutation of all of them.
func (g *Generator) CampaignOrder() []int {
	return g.stream(labelCampaign, 0).perm(campaignVariants)
}

// CampaignSpecs returns the two campaigns of one variant: an adaptive
// sim grid of station count × CW schedule with a CI target on
// norm_throughput (the Figure 2 shape), and a fixed-reps mac grid of
// Poisson load × station count. Variants differ only in base seed.
func CampaignSpecs(variant int) (simGrid, macGrid []byte) {
	seed := strconv.Itoa(1 + 7919*variant)
	simGrid = []byte(`{"name":"bench-sim-grid","base":{"name":"bench-sim-grid-base","engine":"sim","sim_time_us":3e7,"seed":` + seed +
		`,"stations":[{"count":1,"cw":[8,16,32,64],"dc":[0,1,3,15]}]},` +
		`"axes":[{"path":"n","values":[2,3,5,8,12,16,20]},` +
		`{"path":"stations[0].cw","values":[[4,8,16,32],[8,16,32,64],[16,32,64,128],[32,64,128,256]]}],` +
		`"min_reps":3,"max_reps":15,"batch_reps":3,"targets":[{"metric":"norm_throughput","ci":0.004}]}`)
	macGrid = []byte(`{"name":"bench-mac-grid","base":{"name":"bench-mac-grid-base","engine":"mac","sim_time_us":3e7,"seed":` + seed +
		`,"stations":[{"count":1,"traffic":{"kind":"poisson","mean_interarrival_us":20000}}]},` +
		`"axes":[{"path":"stations[0].traffic.mean_interarrival_us","values":[5000,10000,20000,50000]},` +
		`{"path":"n","values":[2,4,8]}],"reps":4}`)
	return simGrid, macGrid
}
