package exec

import (
	"testing"

	"hashstash/internal/storage"
)

// TestSpreadFloor: under the default morsels a source shorter than
// storage.MinSpreadRows stays one cursor on a pool of two, so its
// pipeline is one task streaming into the real sink — no per-worker
// partial, no merge — and gives the same answer as one worker; a source
// at the floor splits, and so does a sub-floor source under an explicit
// MorselRows.
func TestSpreadFloor(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows       int
		morselRows int
		spread     bool
	}{
		{"below", storage.MinSpreadRows - 1, 0, false},
		{"at", storage.MinSpreadRows, 0, true},
		{"explicit", storage.MinSpreadRows - 1, 512, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := bigTable(tc.rows, 37)
			par := Parallelism{Workers: 2, MorselRows: tc.morselRows}
			p, _ := scanAggPipeline(t, tbl, nil)
			cursors, err := p.Source.Morsels(par.MorselRows, par.Workers)
			if err != nil {
				t.Fatal(err)
			}
			if split := len(cursors) >= 2; split != tc.spread {
				t.Fatalf("%d rows, MorselRows %d: %d cursors, want spread=%v",
					tc.rows, tc.morselRows, len(cursors), tc.spread)
			}
			// The job the runner lowers the pipeline to: a merge job has
			// one task per cursor and a Finish that folds the partials.
			j := p.job(par)
			if err := j.Prepare(j); err != nil {
				t.Fatal(err)
			}
			if partials := j.Finish != nil; partials != tc.spread {
				t.Fatalf("%d tasks, per-worker partials=%v, want %v", j.NTasks, partials, tc.spread)
			}
			if !tc.spread && j.NTasks != 1 {
				t.Fatalf("sub-floor pipeline lowered to %d tasks, want 1", j.NTasks)
			}

			parP, parHT := scanAggPipeline(t, tbl, nil)
			if err := RunParallel([]*Pipeline{parP}, par); err != nil {
				t.Fatal(err)
			}
			serialP, serialHT := scanAggPipeline(t, tbl, nil)
			if err := RunParallel([]*Pipeline{serialP}, Parallelism{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, htRows(t, serialHT), htRows(t, parHT))
		})
	}
}
