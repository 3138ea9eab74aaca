// Command benchpair compares the repository benchmark between a parent
// commit and the working tree. It runs benchmark/run.sh in each tree — the
// parent's a temporary git worktree — so each side is built and run exactly
// as the benchmark declares, at BENCHMARK.json's run length; run.sh builds
// on a side's first run and reuses its build cache after. It runs n
// alternating pairs of one workload and seed, flipping which side runs
// first from pair to pair. For every
// end-to-end metric BENCHMARK.json declares it prints both sides' medians
// and quartile ranges, the pairs the change won, a two-sided sign-test
// p-value, and the smallest change that n pairs can detect at the observed
// spread (see detectable).
//
// Usage (as wired by `make pair`):
//
//	go run ./cmd/benchpair -parent HEAD -workload cnn-offline -seed 7 -n 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json as far as the comparison reads it.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one tree under comparison and the runs it produced.
type side struct {
	name, dir string
	runs      []result
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpair: ")
	parent := flag.String("parent", "HEAD", "commit the working tree is compared against")
	workload := flag.String("workload", "cnn-offline", "benchmark workload")
	seed := flag.Int64("seed", 1, "workload seed")
	n := flag.Int("n", 10, "number of parent/change pairs")
	flag.Parse()
	if *n < 1 {
		log.Fatalf("-n %d: need at least one pair", *n)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *parent, *workload, *seed, *n); err != nil {
		stop()
		log.Fatal(err)
	}
}

func run(ctx context.Context, parent, workload string, seed int64, n int) error {
	root, err := git(ctx, "", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := git(ctx, root, "rev-parse", "--verify", parent+"^{commit}")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "parent")
	if _, err := git(ctx, root, "worktree", "add", "--detach", tree, rev); err != nil {
		return err
	}
	// Removed on every path, also after an interrupt cancelled ctx.
	defer func() {
		if _, err := git(context.Background(), root, "worktree", "remove", "--force", tree); err != nil {
			log.Print(err)
		}
	}()

	sides := []*side{
		{name: "parent " + rev[:min(len(rev), 10)], dir: tree},
		{name: "working tree", dir: root},
	}
	args := []string{"benchmark/run.sh", "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sp.RunSeconds, 'g', -1, 64), "--trace", "0"}
	for i := 0; i < n; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i+1, n, s.name)
			r, err := bench(ctx, s, args)
			if err != nil {
				return err
			}
			s.runs = append(s.runs, r)
			for _, m := range sp.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.6g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	fmt.Printf("%s seed %d: %d alternating pairs of %g s runs, %s vs %s\n",
		workload, seed, n, sp.RunSeconds, sides[0].name, sides[1].name)
	report(os.Stdout, sp, sides[0].runs, sides[1].runs)
	return nil
}

// git runs one git command in dir and returns its trimmed output.
func git(ctx context.Context, dir string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// bench runs s's benchmark/run.sh once from its tree and parses the result
// line. A run whose output check failed exits 1 and still prints its
// result, which then reads "correct": false.
func bench(ctx context.Context, s *side, args []string) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var r result
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil || r.Metrics == nil {
		return r, fmt.Errorf("%s: no result line (exit: %v)", s.name, err)
	}
	return r, nil
}

// report prints one row per end-to-end metric, then the correctness and
// failed-operation counts of both sides.
func report(w io.Writer, sp spec, parent, change []result) {
	fmt.Fprintf(w, "%-25s %-7s %-30s %-30s %8s %6s %7s %10s %6s\n",
		"metric", "unit", "parent median [q1 q3]", "change median [q1 q3]", "Δmedian", "wins", "p", "detectable", "bound")
	for _, m := range sp.EndToEnd {
		a, b := column(parent, m.Name), column(change, m.Name)
		wins, losses := signs(a, b, m.Better == "lower")
		pa, pb := quartiles(a), quartiles(b)
		rel := func(x float64) float64 { return 100 * x / math.Abs(pa[1]) }
		delta := pb[1] - pa[1]
		det := "n/a"
		if d, ok := detectable(a, b); ok {
			det = fmt.Sprintf("%.1f%%", rel(d))
		}
		fmt.Fprintf(w, "%-25s %-7s %-30s %-30s %7.1f%% %3d/%-2d %7.4f %10s %5.0f%%\n",
			m.Name, m.Unit, span(pa), span(pb), rel(delta), wins, len(a), signTest(wins, losses), det,
			100*m.Bound)
	}
	for i, rs := range [][]result{parent, change} {
		correct, attempted, failed := 0, int64(0), int64(0)
		for _, r := range rs {
			if r.Correct {
				correct++
			}
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(w, "%s: %d/%d runs correct, %d of %d operations failed\n",
			[]string{"parent", "change"}[i], correct, len(rs), failed, attempted)
	}
}

// column returns one metric's value from every run, in run order.
func column(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// span formats a median with its quartiles.
func span(q [3]float64) string {
	return fmt.Sprintf("%.5g [%.5g %.5g]", q[1], q[0], q[2])
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// signs counts the pairs the change won and lost; ties count for neither.
func signs(parent, change []float64, lower bool) (wins, losses int) {
	for i := range parent {
		d := change[i] - parent[i]
		if lower {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses
}

// signTest is the two-sided sign-test p-value of wins against losses:
// twice the binomial(wins+losses, ½) tail at the larger count, at most 1.
func signTest(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	k := max(wins, losses)
	tail := 0.0
	for i := k; i <= n; i++ {
		tail += math.Exp(lchoose(n, i) - float64(n)*math.Ln2)
	}
	return math.Min(1, 2*tail)
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

// winsNeeded is the fewest of n pairs the change must win to claim a gain:
// nine tenths of the pairs, and a sign-test p below 0.05 when it loses the
// rest. ok is false when even n wins of n leave p at 0.05 or above.
func winsNeeded(n int) (int, bool) {
	for w := int(math.Ceil(0.9 * float64(n))); w <= n; w++ {
		if signTest(w, n-w) < 0.05 {
			return w, true
		}
	}
	return 0, false
}

// detectable is the smallest shift of the change's median that n pairs can
// tell from noise at the observed spread, in the metric's unit. The shift
// must exceed the parent's interquartile range, and it must make a pair a
// win often enough to reach winsNeeded: with paired differences spread
// normally at σ (their interquartile range over 1.349, a robust estimate),
// a shift of z·σ wins a pair with probability Φ(z), and z is taken where
// Φ(z) is the needed win fraction, with half a pair taken off so that n of
// n stays finite.
func detectable(parent, change []float64) (float64, bool) {
	n := len(parent)
	need, ok := winsNeeded(n)
	if !ok {
		return 0, false
	}
	diffs := make([]float64, n)
	for i := range parent {
		diffs[i] = change[i] - parent[i]
	}
	q := math.Min(float64(need), float64(n)-0.5) / float64(n)
	z := math.Sqrt2 * math.Erfinv(2*q-1)
	sigma := (quantile(diffs, 0.75) - quantile(diffs, 0.25)) / 1.349
	pq := quartiles(parent)
	return math.Max(pq[2]-pq[0], z*sigma), true
}
