// Command predict loads a trained two-level model and predicts runtimes
// for configurations given on the command line or in a CSV.
//
// Usage:
//
//	predict -model model.json -params 192,192,128,20
//	predict -model model.json -params 192,192,128,20 -at 512
//	predict -model model.json -params 192,192,128,20 -interval 0.9
//	predict -model model.json -in configs.csv -interval 0.9 -json
//	cut -d, -f1-4 configs.csv | predict -model model.json -in -
//
// A -in CSV needs one header row naming the parameters (matching the
// model's) and one row per configuration; "-in -" reads the CSV from
// stdin, enabling piping.
//
// -interval takes a coverage level in [0.5, 1) (0.9 = a 90% band;
// conformal when the model was trained by the pipeline, tree-ensemble
// spread otherwise) or the legacy tail-quantile form in (0, 0.5).
// -json emits one JSON object per configuration on stdout for piping
// into jq or downstream tooling.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"repro/internal/cliutil"
	"strconv"

	"repro/internal/core"
)

// result is the -json output shape, one object per configuration.
type result struct {
	Params    []float64       `json:"params"`
	Cluster   int             `json:"cluster"`
	Scales    []int           `json:"scales"`
	Runtimes  []float64       `json:"runtimes"`
	Small     []float64       `json:"small,omitempty"`
	Intervals []core.Interval `json:"intervals,omitempty"`
}

func main() {
	var (
		modelPath = flag.String("model", "model.json", "trained model path")
		params    = flag.String("params", "", "one configuration, comma-separated values")
		in        = flag.String("in", "", "CSV of configurations (header + rows); - reads stdin")
		at        = flag.Int("at", 0, "predict at one specific scale (0 = all targets)")
		curves    = flag.Bool("small", false, "also print the predicted small-scale curve")
		interval  = flag.Float64("interval", 0, "add prediction intervals at this coverage, e.g. 0.9 (off unless set)")
		asJSON    = flag.Bool("json", false, "emit one JSON object per configuration instead of text")
	)
	flag.Parse()

	m, err := core.Load(*modelPath)
	if err != nil {
		fatalf("loading model: %v", err)
	}

	// flag.Visit sees only flags given on the command line, so an
	// explicit -interval 0 is rejected by NormalizeCoverage rather than
	// silently treated as "off".
	intervalSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "interval" {
			intervalSet = true
		}
	})
	coverage := 0.0
	if intervalSet {
		coverage, err = core.NormalizeCoverage(*interval)
		if err != nil {
			fatalf("-interval: %v", err)
		}
		if *at > 0 {
			fatalf("-interval is incompatible with -at; request all target scales")
		}
	}

	var configs [][]float64
	switch {
	case *params != "":
		v, err := cliutil.ParseVector(*params)
		if err != nil {
			fatalf("-params: %v", err)
		}
		configs = append(configs, v)
	case *in != "":
		configs, err = loadConfigs(*in, m.ParamNames)
		if err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("provide -params or -in")
	}

	enc := json.NewEncoder(os.Stdout)
	for _, cfg := range configs {
		if len(cfg) != len(m.ParamNames) {
			fatalf("configuration %v has %d values, model expects %d (%v)",
				cfg, len(cfg), len(m.ParamNames), m.ParamNames)
		}
		ev := m.Evaluate(cfg, coverage)
		res := result{Params: cfg, Cluster: ev.Cluster, Scales: m.Cfg.LargeScales, Runtimes: ev.Runtimes}
		if *curves {
			res.Small = ev.Small
		}
		if *at > 0 {
			v, err := m.PredictAt(&ev, *at)
			if err != nil {
				fatalf("%v", err)
			}
			res.Scales = []int{*at}
			res.Runtimes = []float64{v}
		} else if coverage > 0 {
			res.Intervals = m.Intervals(&ev)
		}
		if *asJSON {
			if err := enc.Encode(res); err != nil {
				fatalf("encoding result: %v", err)
			}
			continue
		}
		printResult(m, res)
	}
}

func printResult(m *core.TwoLevelModel, res result) {
	fmt.Printf("config %v (cluster %d)\n", res.Params, res.Cluster)
	if res.Small != nil {
		for i, s := range m.Cfg.SmallScales {
			fmt.Printf("  p=%-6d %.6g s (interpolated)\n", s, res.Small[i])
		}
	}
	for i, s := range res.Scales {
		if res.Intervals != nil {
			iv := res.Intervals[i]
			fmt.Printf("  p=%-6d %.6g s  [%.6g, %.6g] (%s)\n", s, res.Runtimes[i], iv.Lo, iv.Hi, iv.Source)
			continue
		}
		fmt.Printf("  p=%-6d %.6g s\n", s, res.Runtimes[i])
	}
}

func loadConfigs(path string, want []string) ([][]float64, error) {
	var rd io.Reader
	if path == "-" {
		rd = os.Stdin
		path = "stdin"
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header of %s: %w", path, err)
	}
	if len(header) != len(want) {
		return nil, fmt.Errorf("%s has %d columns, model expects %d (%v)", path, len(header), len(want), want)
	}
	for i, h := range header {
		if h != want[i] {
			return nil, fmt.Errorf("%s column %d is %q, model expects %q", path, i, h, want[i])
		}
	}
	var out [][]float64
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		line++
		v := make([]float64, len(rec))
		for i, cell := range rec {
			v[i], err = strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("%s line %d: bad value %q", path, line, cell)
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "predict: "+format+"\n", args...)
	os.Exit(1)
}
