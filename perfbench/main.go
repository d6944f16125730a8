// Command perfbench drives Spitz through its public client API against a
// database served over loopback TCP, checks every result against its own
// model of the data, and prints the workload's metrics as one JSON line.
//
//	perfbench --workload read-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with spans around each op and around the benchmark's
// own calls into single layers, and prints the per-layer metrics. See
// README.md for the workloads and what each metric measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"spitz"
)

type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"read_p75_mix_us", "us"},
}

// perLayer are reported by every traced run. A metric of a layer the
// workload does not reach reads 0.
var perLayer = []metricDef{
	{"client.get_p50_us", "us"},
	{"client.range_p50_us", "us"},
	{"client.verify_point_us", "us"},
	{"client.verify_range_us", "us"},
	{"client.advance_us", "us"},
	{"client.advances_per_read", "count"},
	{"client.verify_query_us", "us"},
	{"wire.get_rtt_us", "us"},
	{"wire.do_get_verified_us", "us"},
	{"wire.server_op_p50_us", "us"},
	{"wire.resp_bytes_per_op", "bytes"},
	{"ledger.prove_point_us", "us"},
	{"ledger.prove_range_us", "us"},
	{"ledger.consistency_proof_us", "us"},
	{"ledger.proof_build_p50_us", "us"},
	{"ledger.proofcache_hit_ratio", "ratio"},
	{"ledger.point_proof_bytes", "bytes"},
	{"ledger.range_proof_bytes", "bytes"},
	{"postree.nodecache_hit_ratio", "ratio"},
	{"core.commit_queue_wait_us", "us"},
	{"core.commit_ledger_us", "us"},
	{"core.commit_durable_wait_us", "us"},
	{"core.txns_per_block", "count"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"cas.cache_hit_ratio", "ratio"},
	{"cas.evictions_per_op", "count"},
	{"cas.flushed_objects_per_commit", "count"},
	{"durable.checkpoint_s", "s"},
	{"wal.retained_blocks", "count"},
	{"durable.bytes_per_user_byte", "ratio"},
	{"durable.reopen_s", "s"},
	{"query.plan_us", "us"},
	{"query.server_select_us", "us"},
	{"query.obligations_per_select", "count"},
	{"query.point_p50_us", "us"},
	{"query.range_p50_us", "us"},
	{"query.aggregate_p50_us", "us"},
	{"query.lookup_p50_us", "us"},
	{"inverted.lookup_us", "us"},
	{"twopc.commit_p50_us", "us"},
	{"twopc.prepares_per_commit", "count"},
}

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for data and spans, under the checkout
}

// outcome is what a workload hands back to main.
type outcome struct {
	kinds   []opKind
	sum     summary
	wall    time.Duration
	cpu     time.Duration // process CPU time of the measured phase
	setup   setupTimes
	metrics map[string]float64
	wrong   []string // failed end-of-run checks
	spans   []*spanLog
}

var workloads = map[string]func(config) (*outcome, error){
	"read-hot":       runReadHot,
	"durable-write":  runDurableWrite,
	"verified-query": runVerifiedQuery,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "read-hot, durable-write or verified-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.work = filepath.Join(".bench_build", "perfbench")
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func report(cfg config, out *outcome) error {
	s := out.sum
	fmt.Printf("workload %s seed %d trace %v: %d ops in %.3fs\n", cfg.workload, cfg.seed, cfg.trace, s.attempted, out.wall.Seconds())
	for k, t := range s.perKind {
		lat := s.kindLatencies(k)
		fmt.Printf("  op %-14s attempted %8d failed %d  p50 %9.1fus  p99 %9.1fus\n",
			out.kinds[k].name, t.attempted, t.failed, usQ(lat, 0.5), usQ(lat, 0.99))
	}
	for _, e := range s.errs {
		fmt.Println("  error:", e)
	}
	for _, w := range out.wrong {
		fmt.Println("  check failed:", w)
	}
	fmt.Printf("  setup repetitions: wall %.3f s, process CPU %.3f s\n", out.setup.wall, out.setup.cpu)

	defs := endToEnd
	vals := map[string]float64{}
	if cfg.trace {
		defs = perLayer
		layers, err := layerTimes(out.spans)
		if err != nil {
			return err
		}
		for metric, name := range spanMetrics {
			vals[metric] = usQ(layers[name], 0.5)
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			return err
		}
		fmt.Printf("  traced ops_per_s %.1f; spans in %s\n", float64(s.attempted)/out.wall.Seconds(), path)
		names := make([]string, 0, len(layers))
		for n := range layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  span %-28s n %7d  self p50 %9.1fus\n", n, len(layers[n]), usQ(layers[n], 0.5))
		}
	} else {
		vals["setup_s"] = median(out.setup.cpu)
		vals["cpu_us_per_op"] = float64(out.cpu.Nanoseconds()) / 1e3 / float64(s.attempted)
		reads := s.latencies(out.kinds, "read")
		commits := s.latencies(out.kinds, "commit")
		vals["read_p75_mix_us"] = s.readMix(out.kinds, 0.75)
		fmt.Printf("  ops_per_s %.1f; reads: %d, p50 %.1fus p90 %.1fus p99 %.1fus; commits: %d, p50 %.1fus p90 %.1fus p99 %.1fus\n",
			float64(s.attempted)/out.wall.Seconds(), len(reads), usQ(reads, 0.5), usQ(reads, 0.9), usQ(reads, 0.99),
			len(commits), usQ(commits, 0.5), usQ(commits, 0.9), usQ(commits, 0.99))
	}
	extra := make([]string, 0, len(out.metrics))
	for k, v := range out.metrics {
		vals[k] = v
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %s %g\n", k, out.metrics[k])
	}
	res := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{
		Correct:   !s.wrong && len(out.wrong) == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metricVal{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricVal{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// isTampered reports whether err is a verification failure.
func isTampered(err error) bool { return errors.Is(err, spitz.ErrTampered) }
