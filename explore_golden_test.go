package atf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"testing"

	"atf"
)

// goldenParams is a two-parameter space of 553 configurations with a
// dependent constraint, small enough for every technique to revisit
// configurations within a few hundred evaluations.
func goldenParams() []*atf.Param {
	a := atf.TP("A", atf.Interval(1, 48))
	b := atf.TP("B", atf.Interval(1, 64),
		atf.Divides(func(c *atf.Config) int64 { return 64 * c.Int("A") }))
	return []*atf.Param{a, b}
}

// goldenCost is a deterministic bowl with its minimum near A=20, B=8 that
// fails on every configuration with (A+B) % 7 == 3.
var goldenCost = atf.CostFunc(func(c *atf.Config) (atf.Cost, error) {
	a, b := c.Int("A"), c.Int("B")
	if (a+b)%7 == 3 {
		return nil, fmt.Errorf("golden: A=%d B=%d rejected", a, b)
	}
	da, db := float64(a-20), float64(b-8)
	return atf.Cost{da*da + 3*db*db + float64(a*b%5)}, nil
})

// historyDigest hashes everything deterministic about a recorded run:
// per evaluation its index, key, cost, error text and Cached flag, then
// Best, BestCost and the index and key of every improvement. Wall-clock
// fields (Evaluation.At) are left out by construction.
func historyDigest(res *atf.Result) string {
	h := sha256.New()
	for _, ev := range res.History {
		writeEval(h, ev)
		fmt.Fprintf(h, " cached=%t\n", ev.Cached)
	}
	best := "none"
	if res.Best != nil {
		best = res.Best.Key()
	}
	fmt.Fprintf(h, "best %s %s\n", best, costText(res.BestCost))
	for _, ev := range res.Improvements {
		fmt.Fprint(h, "improvement ")
		writeEval(h, ev)
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeEval(h hash.Hash, ev atf.Evaluation) {
	errText := ""
	if ev.Err != nil {
		errText = ev.Err.Error()
	}
	fmt.Fprintf(h, "%d %s %s %q", ev.Index, ev.Config.Key(), costText(ev.Cost), errText)
}

func costText(c atf.Cost) string {
	s := ""
	for _, v := range c {
		s += strconv.FormatFloat(v, 'g', -1, 64) + ","
	}
	return s
}

// TestExploreGoldenHistory pins the exact evaluation history of one-worker
// exploration for every built-in technique, with and without the cost
// cache, under an evaluation budget that stops mid-run and with a cost
// function that fails on some configurations. The digests were taken
// from the one-evaluator loop before exploration was unified on the
// batched engine; any drift in proposal order, Cached flags, error
// propagation or the abort boundary changes them.
func TestExploreGoldenHistory(t *testing.T) {
	cases := []struct {
		name  string
		tech  func() atf.Technique
		abort atf.AbortCondition
		cache bool
		want  string
	}{
		{"exhaustive", atf.Exhaustive, nil, false, "df1c6a9aad87a9b0"},
		{"exhaustive/cache", atf.Exhaustive, nil, true, "df1c6a9aad87a9b0"},
		{"exhaustive/abort", atf.Exhaustive, atf.Evaluations(137), false, "2d4c496fe5ef6332"},
		{"random", atf.RandomSearch, atf.Evaluations(250), false, "795b509e03cf1427"},
		{"random/cache", atf.RandomSearch, atf.Evaluations(250), true, "c035b452e756ddae"},
		{"annealing", atf.SimulatedAnnealing, atf.Evaluations(250), false, "27e26c386e510ff4"},
		{"annealing/cache", atf.SimulatedAnnealing, atf.Evaluations(250), true, "1b11b9459d819a23"},
		{"localsearch", func() atf.Technique { return atf.LocalSearch(8) }, atf.Evaluations(250), false, "578990142b9a2787"},
		{"localsearch/cache", func() atf.Technique { return atf.LocalSearch(8) }, atf.Evaluations(250), true, "b394b8a382af5a55"},
		{"opentuner", atf.OpenTunerSearch, atf.Evaluations(250), false, "b8a081aef499f2f0"},
		{"opentuner/cache", atf.OpenTunerSearch, atf.Evaluations(250), true, "d23d4f0017498c2c"},
		{"opentuner/cache/abort", atf.OpenTunerSearch, atf.Evaluations(61), true, "bf176639d2bb8a70"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := atf.Tuner{
				Technique:  tc.tech(),
				Abort:      tc.abort,
				Seed:       11,
				CacheCosts: tc.cache,
				Record:     true,
			}.Tune(goldenCost, goldenParams()...)
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(res.History)) != res.Evaluations {
				t.Fatalf("history holds %d of %d evaluations", len(res.History), res.Evaluations)
			}
			failed, cached := 0, 0
			for _, ev := range res.History {
				if ev.Err != nil {
					failed++
				}
				if ev.Cached {
					cached++
				}
			}
			if failed == 0 {
				t.Fatal("no failing configuration was evaluated")
			}
			if cached > 0 && !tc.cache {
				t.Fatalf("%d evaluations marked cached without the cost cache", cached)
			}
			if got := historyDigest(res); got != tc.want {
				t.Errorf("history digest = %s, want %s", got, tc.want)
			}
		})
	}
}
