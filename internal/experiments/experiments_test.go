package experiments

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// goldenDigestsPath pins every table's campaign digest. The file is
// written once and never regenerated by refactors: a refactor that claims
// "same bytes" must reproduce it unchanged, and only a change that means
// to alter a table's rows may edit the affected line.
const goldenDigestsPath = "testdata/digests.txt"

// readGoldenDigests parses goldenDigestsPath: one "<table id> <digest>"
// pair per line.
func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenDigestsPath, sc.Text())
		}
		golden[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestAllTablesVerified runs every experiment end to end and asserts no
// row reports a verification failure — the experiment suite is itself a
// regression test for the whole stack — and that every table's campaign
// digest matches the golden file, so the rows are byte-identical to the
// ones it was written from.
func TestAllTablesVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	golden := readGoldenDigests(t)
	tables, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(tables) {
		t.Errorf("%s pins %d tables, the registry builds %d", goldenDigestsPath, len(golden), len(tables))
	}
	ids := make(map[string]bool)
	for _, table := range tables {
		table := table
		t.Run(table.ID, func(t *testing.T) {
			if table.ID == "" || table.Title == "" || table.Paper == "" {
				t.Fatalf("table metadata incomplete: %+v", table)
			}
			if ids[table.ID] {
				t.Fatalf("duplicate experiment id %s", table.ID)
			}
			ids[table.ID] = true
			if table.Partial {
				t.Fatal("default campaign config produced a partial table")
			}
			if table.Digest == "" {
				t.Fatal("table has no campaign digest")
			}
			if want := golden[table.ID]; table.Digest != want {
				t.Errorf("campaign digest %s, golden %s: the table's rows changed", table.Digest, want)
			}
			if len(table.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for _, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(table.Header), row)
				}
				for _, cell := range row {
					if strings.HasPrefix(cell, "✗") {
						t.Fatalf("verification failure in row %v", row)
					}
				}
			}
		})
	}
}

func TestMarkdownRendering(t *testing.T) {
	tb := Table{
		ID:     "EX",
		Title:  "demo",
		Paper:  "Figure 0",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note."},
	}
	md := tb.Markdown()
	for _, want := range []string{"### EX — demo", "| a | b |", "| 1 | 2 |", "note.", "Figure 0"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

// TestTablesSelection asserts Tables builds exactly the requested
// experiments, in index order, without running the rest.
func TestTablesSelection(t *testing.T) {
	tables, err := Tables([]string{"E5", "E1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E1" || tables[1].ID != "E5" {
		got := make([]string, len(tables))
		for i, tb := range tables {
			got[i] = tb.ID
		}
		t.Fatalf("Tables([E5 E1]) built %v, want [E1 E5]", got)
	}
	// A typo'd id must error, not silently drop the table.
	if _, err := Tables([]string{"E5", "E61"}); err == nil || !strings.Contains(err.Error(), "E61") {
		t.Fatalf("Tables with unknown id E61: err = %v, want error naming it", err)
	}
}

// assertCampaignModesByteIdentical pins one table's byte-identity across
// campaign layouts: (a) the default single-shard in-memory mode, (b) 3
// in-process shards with checkpoints, and (c) 3 shard-only runs — one
// campaign.Run call per shard, exactly what three separate processes
// execute — then merged via -resume semantics.
func assertCampaignModesByteIdentical(t *testing.T, id string, builder func() (Table, error)) {
	t.Helper()
	defer SetCampaign(campaign.Config{})

	build := func(cfg campaign.Config) Table {
		t.Helper()
		SetCampaign(cfg)
		table, err := builder()
		if err != nil {
			t.Fatal(err)
		}
		return table
	}

	serial := build(campaign.Config{})
	if serial.Digest == "" || len(serial.Rows) == 0 {
		t.Fatalf("serial table incomplete: %+v", serial)
	}

	inproc := build(campaign.Config{Shards: 3, Shard: -1})
	if inproc.Markdown() != serial.Markdown() || inproc.Digest != serial.Digest {
		t.Fatalf("3 in-process shards diverge from serial:\n%s\nvs\n%s", inproc.Markdown(), serial.Markdown())
	}

	dir := t.TempDir()
	for s := 0; s < 3; s++ {
		shard := build(campaign.Config{Shards: 3, Shard: s, Dir: dir})
		if !shard.Partial || shard.Rows != nil {
			t.Fatalf("shard-only run %d returned a full table: %+v", s, shard)
		}
		if _, err := os.Stat(campaign.ShardPath(dir, id, 3, s)); err != nil {
			t.Fatalf("shard %d checkpoint not written: %v", s, err)
		}
	}
	merged := build(campaign.Config{Shards: 3, Shard: -1, Dir: dir, Resume: true})
	if merged.Markdown() != serial.Markdown() || merged.Digest != serial.Digest {
		t.Fatalf("merged multi-process table diverges from serial:\n%s\nvs\n%s", merged.Markdown(), serial.Markdown())
	}

	// A damaged checkpoint must be rejected by a bare merge.
	path := campaign.ShardPath(dir, id, 3, 1)
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Merge[[]string](dir, id, 3, 3); err == nil {
		t.Fatal("merge accepted a corrupt shard checkpoint")
	}
}

// TestCampaignModesByteIdentical is the acceptance pin at the experiments
// layer (reduction workload, E1).
func TestCampaignModesByteIdentical(t *testing.T) {
	assertCampaignModesByteIdentical(t, "E1", E1SigmaToHSigmaKnown)
}

// TestE20CampaignModesByteIdentical extends the pin to the churn-consensus
// table: the rejoin protocol, decision-stability monitoring, and the churn
// cross-checks must all be deterministic under every shard layout.
func TestE20CampaignModesByteIdentical(t *testing.T) {
	assertCampaignModesByteIdentical(t, "E20", E20ChurnConsensus)
}

// TestE21CampaignModesByteIdentical pins serial-vs-parallel byte-identity
// at population scale: the lazy fan-out fate streams and the streaming
// verifiers must be exactly as deterministic at n=50,000 as the eager
// path was at n=50 — same digest whatever the shard/worker layout.
func TestE21CampaignModesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the population-scaling table four times")
	}
	assertCampaignModesByteIdentical(t, "E21", E21PopulationScaling)
}
