package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/expr"
	"repro/internal/models"
	"repro/internal/schema"
	"repro/internal/smt"
	"repro/internal/vcache"
	"repro/internal/wal"
)

// Probes time single public calls of a layer, on seeded inputs, in the
// traced run only. They give a floor to hold the workload numbers against:
// what one rational check, one push/pop, one table snapshot, one WAL sync
// costs on this machine with nothing else in the way.

// probeSystem is a seeded feasible linear system over nonnegative integers:
// vars variables, rows inequalities built around a known integer point.
func probeSystem(rng *rand.Rand, vars, rows int) (*expr.Table, []expr.Constraint, error) {
	tab := expr.NewTable()
	syms := make([]expr.Sym, vars)
	point := make([]int64, vars)
	for i := range syms {
		syms[i] = tab.Intern(fmt.Sprintf("x%d", i))
		point[i] = int64(rng.Intn(20))
	}
	var cs []expr.Constraint
	for r := 0; r < rows; r++ {
		// slack + Σ a·point − Σ a·x >= 0, i.e. Σ a·x <= Σ a·point + slack.
		l := expr.NewLin(int64(rng.Intn(5)))
		for i, s := range syms {
			a := int64(rng.Intn(7) - 2)
			if err := l.AddTerm(s, -a); err != nil {
				return nil, nil, err
			}
			if err := l.AddConst(a * point[i]); err != nil {
				return nil, nil, err
			}
		}
		cs = append(cs, expr.GEZero(l))
	}
	// One equality row couples a pair, so the integer check has something
	// to branch on when the relaxation lands between lattice points.
	l := expr.Term(syms[0], 2)
	if err := l.AddTerm(syms[1], -2); err != nil {
		return nil, nil, err
	}
	if err := l.AddConst(-2 * (point[0] - point[1])); err != nil {
		return nil, nil, err
	}
	cs = append(cs, expr.EQZero(l))
	return tab, cs, nil
}

// timeEach runs fn n times and returns the median duration of one call.
func timeEach(n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// layerProbes runs the probes every workload shares. They do not depend on
// the workload, so each traced run carries the same floor numbers.
func layerProbes(e *env, layers map[string]float64) error {
	if err := verifierProbes(e, layers); err != nil {
		return err
	}
	return servingProbes(e, layers)
}

// verifierProbes fills the smt.* and expr.* probe metrics.
func verifierProbes(e *env, layers map[string]float64) error {
	rng := rand.New(rand.NewSource(e.seed))
	tab, cs, err := probeSystem(rng, 8, 12)
	if err != nil {
		return err
	}
	n := e.div(200, 20)

	d, err := timeEach(n, func() error {
		s := smt.NewSolver(tab)
		s.AssertAll(cs)
		st, _, err := s.CheckRational()
		if err == nil && st != smt.Sat {
			err = fmt.Errorf("rational probe system is %v, built feasible", st)
		}
		return err
	})
	if err != nil {
		return err
	}
	layers["smt.probe_check_rational_us"] = us(d)

	d, err = timeEach(n, func() error {
		s := smt.NewSolver(tab)
		s.AssertAll(cs)
		st, m, err := s.CheckInteger(10_000)
		if err == nil && st != smt.Sat {
			err = fmt.Errorf("integer probe system is %v, built feasible", st)
		}
		if err == nil {
			err = s.Verify(m)
		}
		return err
	})
	if err != nil {
		return err
	}
	layers["smt.probe_check_integer_us"] = us(d)

	// One warm solver; each call opens a scope, adds one row, re-checks and
	// pops — the step the incremental full-mode walker takes per level.
	warm := smt.NewSolver(tab)
	warm.AssertAll(cs[:len(cs)-1])
	if _, _, err := warm.CheckRational(); err != nil {
		return err
	}
	d, err = timeEach(n, func() error {
		warm.Push()
		warm.Assert(cs[len(cs)-1])
		_, _, err := warm.CheckRational()
		warm.Pop()
		return err
	})
	if err != nil {
		return err
	}
	layers["smt.probe_push_pop_us"] = us(d)

	// Table.Snapshot at the size every encoding of the simplified automaton
	// copies.
	a := models.SimplifiedConsensus()
	size := a.Table.Len()
	d, err = timeEach(n, func() error {
		if a.Table.Snapshot(size).Len() != size {
			return fmt.Errorf("snapshot lost symbols")
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["expr.probe_snapshot_us"] = us(d)
	return nil
}

// servingProbes fills the vcache.* and wal.* probe metrics, on the same
// filesystem the service's cache and queue directories live on.
func servingProbes(e *env, layers map[string]float64) error {
	n := e.div(200, 20)
	a, q, err := findQuery("bv", "BV-Just0")
	if err != nil {
		return err
	}
	eng, err := schema.New(a, schema.Options{Mode: schema.Staged, Workers: 1})
	if err != nil {
		return err
	}
	res, err := eng.Check(q)
	if err != nil {
		return err
	}
	var key string
	d, err := timeEach(n, func() error {
		key = vcache.Key(eng.TA(), q, vcache.ConfigOf(eng.Opts()), vcache.EngineVersion)
		return nil
	})
	if err != nil {
		return err
	}
	layers["vcache.key_us"] = us(d)

	dir := filepath.Join(e.tmp, "probe-vcache")
	defer os.RemoveAll(dir)
	cache, err := vcache.Open(vcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	ent, err := vcache.FromResult(eng.TA(), key, res)
	if err != nil {
		return err
	}
	d, err = timeEach(n/4+1, func() error { return cache.Put(ent) })
	if err != nil {
		return err
	}
	layers["vcache.put_us"] = us(d)
	d, err = timeEach(n, func() error {
		if _, ok := cache.Get(key); !ok {
			return fmt.Errorf("vcache probe: stored key missed")
		}
		return nil
	})
	if err != nil {
		return err
	}
	layers["vcache.get_hit_us"] = us(d)

	walDir := filepath.Join(e.tmp, "probe-wal")
	defer os.RemoveAll(walDir)
	log, _, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, 256)
	d, err = timeEach(n, func() error { return log.Append(payload) })
	if err != nil {
		return err
	}
	layers["wal.probe_append_us"] = us(d)
	d, err = timeEach(n/4+1, func() error {
		if err := log.Append(payload); err != nil {
			return err
		}
		return log.Sync()
	})
	if err != nil {
		return err
	}
	layers["wal.probe_sync_ms"] = ms(d)
	return nil
}
