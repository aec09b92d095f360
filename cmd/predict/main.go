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
// stdin, enabling piping. Every row is checked before any is evaluated,
// and the rows are evaluated as one batch, so a bad row fails the run
// before anything is printed.
//
// -interval takes a coverage level in [0.5, 1) (0.9 = a 90% band;
// conformal when the model was trained by the pipeline, tree-ensemble
// spread otherwise) or the legacy tail-quantile form in (0, 0.5).
// -json emits one JSON object per configuration on stdout for piping
// into jq or downstream tooling.
package main

import (
	"bufio"
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
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, reads a -in "-" CSV from stdin and writes the
// predictions to stdout. Every configuration is checked before any is
// evaluated, and all of them are evaluated as one batch, so a bad row
// fails the run before anything is printed.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "model.json", "trained model path")
		params    = fs.String("params", "", "one configuration, comma-separated values")
		in        = fs.String("in", "", "CSV of configurations (header + rows); - reads stdin")
		at        = fs.Int("at", 0, "predict at one specific scale (0 = all targets)")
		curves    = fs.Bool("small", false, "also print the predicted small-scale curve")
		interval  = fs.Float64("interval", 0, "add prediction intervals at this coverage, e.g. 0.9 (off unless set)")
		asJSON    = fs.Bool("json", false, "emit one JSON object per configuration instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := core.Load(*modelPath)
	if err != nil {
		return fmt.Errorf("loading model: %v", err)
	}

	// Visit sees only flags given on the command line, so an explicit
	// -interval 0 is rejected by NormalizeCoverage rather than silently
	// treated as "off".
	intervalSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "interval" {
			intervalSet = true
		}
	})
	coverage := 0.0
	if intervalSet {
		coverage, err = core.NormalizeCoverage(*interval)
		if err != nil {
			return fmt.Errorf("-interval: %v", err)
		}
		if *at > 0 {
			return fmt.Errorf("-interval is incompatible with -at; request all target scales")
		}
	}
	if *at > 0 {
		if err := m.CheckScale(*at); err != nil {
			return err
		}
	}

	var configs [][]float64
	switch {
	case *params != "":
		v, err := cliutil.ParseVector(*params)
		if err != nil {
			return fmt.Errorf("-params: %v", err)
		}
		configs = append(configs, v)
	case *in != "":
		configs, err = loadConfigs(*in, m.ParamNames, stdin)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("provide -params or -in")
	}
	for _, cfg := range configs {
		if len(cfg) != len(m.ParamNames) {
			return fmt.Errorf("configuration %v has %d values, model expects %d (%v)",
				cfg, len(cfg), len(m.ParamNames), m.ParamNames)
		}
	}

	evs := make([]core.Eval, len(configs))
	m.EvaluateBatch(configs, coverage, evs)
	out := bufio.NewWriter(stdout)
	enc := json.NewEncoder(out)
	for i, cfg := range configs {
		ev := &evs[i]
		res := result{Params: cfg, Cluster: ev.Cluster, Scales: m.Cfg.LargeScales, Runtimes: ev.Runtimes}
		if *curves {
			res.Small = ev.Small
		}
		if *at > 0 {
			v, err := m.PredictAt(ev, *at)
			if err != nil {
				return err
			}
			res.Scales = []int{*at}
			res.Runtimes = []float64{v}
		} else if coverage > 0 {
			res.Intervals = m.Intervals(ev)
		}
		if *asJSON {
			if err := enc.Encode(res); err != nil {
				return fmt.Errorf("encoding result: %v", err)
			}
			continue
		}
		printResult(out, m, res)
	}
	return out.Flush()
}

// printResult writes res as text. A bufio.Writer keeps its first write
// error and returns it from Flush, so the writes here drop theirs.
func printResult(w *bufio.Writer, m *core.TwoLevelModel, res result) {
	_, _ = fmt.Fprintf(w, "config %v (cluster %d)\n", res.Params, res.Cluster)
	if res.Small != nil {
		for i, s := range m.Cfg.SmallScales {
			_, _ = fmt.Fprintf(w, "  p=%-6d %.6g s (interpolated)\n", s, res.Small[i])
		}
	}
	for i, s := range res.Scales {
		if res.Intervals != nil {
			iv := res.Intervals[i]
			_, _ = fmt.Fprintf(w, "  p=%-6d %.6g s  [%.6g, %.6g] (%s)\n", s, res.Runtimes[i], iv.Lo, iv.Hi, iv.Source)
			continue
		}
		_, _ = fmt.Fprintf(w, "  p=%-6d %.6g s\n", s, res.Runtimes[i])
	}
}

func loadConfigs(path string, want []string, stdin io.Reader) ([][]float64, error) {
	var rd io.Reader
	if path == "-" {
		rd = stdin
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
