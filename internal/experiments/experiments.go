// Package experiments reproduces every table and figure of the paper's
// evaluation: each experiment runs the measurement pipeline over the
// synthetic world and reports paper-value vs measured-value rows, plus
// the raw series behind the figures. cmd/ixpreport prints these reports;
// the repository-level benchmarks regenerate them under testing.B.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"ixplens/internal/core/churn"
	"ixplens/internal/core/visibility"
	"ixplens/internal/core/webserver"
	"ixplens/internal/netmodel"
	"ixplens/internal/packet"
	"ixplens/internal/pipeline"
	"ixplens/internal/routing"
	"ixplens/internal/traffic"
)

// Row is one metric of a report: what the paper states, what the
// reproduction measured.
type Row struct {
	Metric   string
	Paper    string
	Measured string
}

// Report is one experiment's outcome.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	// Series carries figure data (rank curves, weekly series, scatter
	// coordinates) keyed by a short name.
	Series map[string][]float64
}

// add appends a row.
func (r *Report) add(metric, paper string, measured string) {
	r.Rows = append(r.Rows, Row{Metric: metric, Paper: paper, Measured: measured})
}

func (r *Report) addf(metric, paper, format string, args ...interface{}) {
	r.add(metric, paper, fmt.Sprintf(format, args...))
}

func (r *Report) series(name string, values []float64) {
	if r.Series == nil {
		r.Series = make(map[string][]float64)
	}
	r.Series[name] = values
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	wMetric, wPaper := len("metric"), len("paper")
	for _, row := range r.Rows {
		if len(row.Metric) > wMetric {
			wMetric = len(row.Metric)
		}
		if len(row.Paper) > wPaper {
			wPaper = len(row.Paper)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-*s  %s\n", wMetric, "metric", wPaper, "paper", "measured")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-*s  %-*s  %s\n", wMetric, row.Metric, wPaper, row.Paper, row.Measured)
	}
	return b.String()
}

// Runner owns the environment and caches the expensive artifacts
// (week-45 capture and analysis, 17-week tracking) across experiments.
type Runner struct {
	Env *pipeline.Env

	// runCtx cancels the pipeline passes behind every experiment; see
	// SetContext. nil means context.Background().
	runCtx context.Context

	week45 *pipeline.Week
	agg45  *visibility.Aggregator

	tracker  *churn.Tracker
	weekly   []*webserver.Result
	truths   []traffic.WeekStats
	weekErrs pipeline.WeekErrors
}

// SetContext installs the context every subsequent experiment's
// pipeline passes run under, so a whole report run can be cancelled
// from one place (experiments themselves are too numerous and too
// cheap to each take a context parameter).
func (r *Runner) SetContext(ctx context.Context) { r.runCtx = ctx }

// ctx returns the runner's context, never nil.
func (r *Runner) ctx() context.Context {
	if r.runCtx == nil {
		return context.Background()
	}
	return r.runCtx
}

// New builds a runner over a fresh world.
func New(cfg netmodel.Config, opts traffic.Options) (*Runner, error) {
	env, err := pipeline.NewEnv(cfg, opts)
	if err != nil {
		return nil, err
	}
	return &Runner{Env: env}, nil
}

// FocusWeek is the weekly snapshot every single-week experiment uses
// (week 45, like the paper).
const FocusWeek = 45

// Week45 runs (once) the full week-45 analysis, streamed through
// AnalyzeWeek, including the visibility aggregation that Tables 1-3
// need.
func (r *Runner) Week45() (*pipeline.Week, *visibility.Aggregator, error) {
	if r.week45 != nil {
		return r.week45, r.agg45, nil
	}
	// ONE fused pass: AnalyzeWeek feeds every registered analyzer —
	// identifier, visibility, link flows — from the same decode, and the
	// aggregator Tables 1-3 need rebuilds from the persisted visibility
	// product over the environment's shared entity table.
	wk, err := r.Env.AnalyzeWeek(r.ctx(), r.focusWeek())
	if err != nil {
		return nil, nil, err
	}
	if wk.Visibility == nil {
		return nil, nil, errors.New("experiments: visibility analyzer not in the registry")
	}
	r.week45, r.agg45 = wk, wk.Visibility.Aggregator(r.Env.EntityTable())
	return r.week45, r.agg45, nil
}

// focusWeek clamps FocusWeek into the configured window.
func (r *Runner) focusWeek() int {
	cfg := &r.Env.World.Cfg
	w := FocusWeek
	if w < cfg.FirstWeek {
		w = cfg.FirstWeek
	}
	if w > cfg.LastWeek() {
		w = cfg.LastWeek()
	}
	return w
}

// Tracked runs (once) the 17-week light pipeline. Per-week failures
// degrade instead of aborting: the gap-annotated tracker and partial
// results are cached and returned, and the typed error set is kept for
// WeekErrors so reports can disclose the missing coverage.
func (r *Runner) Tracked() (*churn.Tracker, []*webserver.Result, error) {
	if r.tracker != nil {
		return r.tracker, r.weekly, nil
	}
	tracker, weekly, truths, err := r.Env.TrackWeeks(r.ctx())
	if err != nil {
		var werrs pipeline.WeekErrors
		if !errors.As(err, &werrs) {
			return nil, nil, err
		}
		r.weekErrs = werrs
	}
	r.tracker, r.weekly, r.truths = tracker, weekly, truths
	return tracker, weekly, nil
}

// WeekErrors reports the per-week failures of the Tracked run (nil when
// every week completed, or before Tracked ran).
func (r *Runner) WeekErrors() pipeline.WeekErrors { return r.weekErrs }

// serverFilter returns the predicate selecting identified server IPs.
func serverFilter(res *webserver.Result) func(packet.IPv4Addr) bool {
	return func(ip packet.IPv4Addr) bool {
		_, ok := res.Servers[ip]
		return ok
	}
}

// serverSet materializes the identified server IPs.
func serverSet(res *webserver.Result) map[packet.IPv4Addr]bool {
	out := make(map[packet.IPv4Addr]bool, len(res.Servers))
	for ip := range res.Servers {
		out[ip] = true
	}
	return out
}

// memberASNs lists the ASNs of the week's IXP members.
func (r *Runner) memberASNs(isoWeek int) []uint32 {
	w := r.Env.World
	var out []uint32
	for i := range w.ASes {
		if w.ASes[i].IsMemberInWeek(isoWeek) {
			out = append(out, w.ASes[i].ASN)
		}
	}
	return out
}

// distanceClasses computes A(L)/A(M)/A(G) for the focus week.
func (r *Runner) distanceClasses() map[uint32]routing.DistanceClass {
	return r.Env.World.ASGraph().Classify(r.memberASNs(r.focusWeek()))
}

// All runs every experiment in DESIGN.md order.
func (r *Runner) All() ([]Report, error) {
	type step struct {
		name string
		fn   func() (Report, error)
	}
	steps := []step{
		{"E1", r.Fig1Filtering},
		{"E2", r.ServerIdentification},
		{"E3", r.Fig2RankCurve},
		{"E4", r.Table1Summary},
		{"E5", r.Fig3CountryShares},
		{"E6", r.Table2Top10},
		{"E7", r.Table3LocalGlobal},
		{"E8", r.BlindSpotAlexa},
		{"E9", r.BlindSpotISP},
		{"E10", r.Fig4aServerChurn},
		{"E11", r.Fig4bRegionChurn},
		{"E12", r.Fig4cASChurn},
		{"E13", r.Fig5TrafficChurn},
		{"E14", r.WeeklyStability},
		{"E15", r.EventDetection},
		{"E16", r.ClusterOrganizations},
		{"E17", r.Fig6bOrgSpread},
		{"E18", r.Fig6cASHosting},
		{"E19", r.Fig7bAcmeLinks},
		{"E20", r.Fig7cCloudflareLinks},
		{"E21", r.MetadataCoverage},
		{"E22", r.ServerToServerTrend},
		{"E23", r.SamplingCalibration},
		{"E24", r.PeeringFabricVisibility},
	}
	out := make([]Report, 0, len(steps))
	for _, s := range steps {
		rep, err := s.fn()
		if err != nil {
			return out, fmt.Errorf("experiment %s: %w", s.name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// pct formats a ratio as a percentage string.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// ratio guards division by zero.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Markdown renders the report as a GitHub-flavored Markdown section
// with a paper-vs-measured table — the format EXPERIMENTS.md uses.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	b.WriteString("| metric | paper | measured |\n|---|---|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s | %s | %s |\n",
			mdEscape(row.Metric), mdEscape(row.Paper), mdEscape(row.Measured))
	}
	return b.String()
}

// mdEscape keeps table cells from breaking the Markdown grid.
func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
