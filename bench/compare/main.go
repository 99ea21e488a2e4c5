// Command compare judges a change against its parent on the benchmark. It
// runs the benchmark on two checkouts in alternating pairs, each pair on
// one seed, and prints one row per (workload, end-to-end metric) with both
// sides' medians and quartiles, the ratio with its base, the wins, and a
// verdict: gain, regression, unresolved or within bound (see Judge).
//
// Run the pairs and judge them:
//
//	go -C bench run ./compare -parent ../parent -change . -out runs.jsonl
//
// Judge runs recorded before:
//
//	go -C bench run ./compare -in runs.jsonl
//
// Checkout paths are relative to the bench directory. Each side runs its
// own bench/run.sh, so both must carry the same benchmark code. The
// workloads, the measured seconds of a run and the bounds come from the
// change's BENCHMARK.json (with -in, the one beside the bench directory).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"

	"repro/bench/trustbench"
)

// Record is one benchmark run of one side.
type Record struct {
	Pair     int                `json:"pair"`
	Side     string             `json:"side"` // "parent" or "change"
	Workload string             `json:"workload"`
	Seed     int                `json:"seed"`
	Summary  trustbench.Summary `json:"summary"`
}

func main() {
	var (
		parent = flag.String("parent", "", "checkout of the parent commit")
		change = flag.String("change", "", "checkout of the change")
		out    = flag.String("out", "", "append every run's record to this JSON-lines file")
		in     = flag.String("in", "", "judge the records in this JSON-lines file instead of running")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	specPath := filepath.Join("..", "BENCHMARK.json")
	if *change != "" {
		specPath = filepath.Join(*change, "BENCHMARK.json")
	}
	spec, err := trustbench.LoadSpec(specPath)
	if err != nil {
		fail(err)
	}

	var records []Record
	switch {
	case *in != "":
		if records, err = readRecords(*in); err != nil {
			fail(err)
		}
	case *parent != "" && *change != "":
		if records, err = runPairs(ctx, spec, *parent, *change, *out); err != nil {
			fail(err)
		}
	default:
		fail(errors.New("give -parent and -change, or -in"))
	}
	rows := judgeAll(spec, records)
	for _, r := range rows {
		fmt.Println(r)
	}
}

// runPairs runs every declared workload minPairs times on each checkout.
// Pair i runs seed i+1 on both sides; even pairs run the parent first, odd
// pairs the change first, so drift in the machine's state favours neither
// side.
func runPairs(ctx context.Context, spec *trustbench.Spec, parent, change, out string) ([]Record, error) {
	var sink io.Writer = io.Discard
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)
	var records []Record
	for i := 0; i < minPairs; i++ {
		sides := [][2]string{{"parent", parent}, {"change", change}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, sw := range spec.Workloads {
			w := sw.Name
			for _, side := range sides {
				fmt.Fprintf(os.Stderr, "compare: pair %d/%d %s %s\n", i+1, minPairs, w, side[0])
				sum, err := runOnce(ctx, side[1], w, i+1, spec.RunSeconds)
				if err != nil {
					return nil, fmt.Errorf("%s run of %s, seed %d: %w", side[0], w, i+1, err)
				}
				rec := Record{Pair: i, Side: side[0], Workload: w, Seed: i + 1, Summary: sum}
				records = append(records, rec)
				if err := enc.Encode(rec); err != nil {
					return nil, err
				}
			}
		}
	}
	return records, nil
}

// runOnce runs the benchmark command in checkout and parses its last line.
// A run that failed operations exits 1 after printing its result; that
// result is kept, so the rule can weigh the failures. Any other failure
// ends the comparison.
func runOnce(ctx context.Context, checkout, workload string, seed, seconds int) (trustbench.Summary, error) {
	cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = checkout
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return trustbench.Summary{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var sum trustbench.Summary
	if perr := json.Unmarshal(lines[len(lines)-1], &sum); perr != nil {
		return trustbench.Summary{}, errors.Join(err, fmt.Errorf("parse result line: %w", perr))
	}
	return sum, nil
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// judgeAll pairs the records by (workload, pair) and judges every
// end-to-end metric, workloads in spec order.
func judgeAll(spec *trustbench.Spec, records []Record) []Row {
	type key struct {
		workload string
		pair     int
	}
	sides := map[key]map[string]trustbench.Summary{}
	for _, r := range records {
		k := key{r.Workload, r.Pair}
		if sides[k] == nil {
			sides[k] = map[string]trustbench.Summary{}
		}
		sides[k][r.Side] = r.Summary
	}
	keys := make([]key, 0, len(sides))
	for k := range sides {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].pair < keys[j].pair })

	var rows []Row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row := Row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: *m.Bound}
			var pairs []Pair
			for _, k := range keys {
				p, okP := sides[k]["parent"]
				c, okC := sides[k]["change"]
				if k.workload != w.Name || !okP || !okC {
					continue
				}
				row.FailedParent += p.Failed
				row.FailedChange += c.Failed
				pv, okP := p.Metrics[m.Name]
				cv, okC := c.Metrics[m.Name]
				if okP && okC && p.Correct && c.Correct {
					pairs = append(pairs, Pair{Parent: pv.Value, Change: cv.Value})
				}
			}
			if len(pairs) == 0 && row.FailedParent == 0 && row.FailedChange == 0 {
				continue // workload not run
			}
			rows = append(rows, Judge(row, pairs))
		}
	}
	return rows
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
