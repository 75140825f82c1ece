package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/itemset"
)

func sampleState() *State {
	return &State{
		Node: 3,
		Pass: 2,
		Large: []itemset.Itemset{
			itemset.New(1, 2),
			itemset.New(2, 5),
		},
		PrevLarge: []itemset.Itemset{
			itemset.New(1), itemset.New(2), itemset.New(5),
		},
		ParamsDigest: 0xdeadbeef,
		PartDigest:   0xfeedface,
		Counters: Counters{
			Pass2Candidates:   42,
			Pagefaults:        7,
			Evictions:         5,
			Updates:           11,
			PeakResidentBytes: 4096,
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadMissingIsNotAnError(t *testing.T) {
	st, err := NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatalf("missing checkpoint: %v", err)
	}
	if got != nil {
		t.Fatalf("missing checkpoint returned state %+v", got)
	}
}

func TestSaveOverwritesPreviousPass(t *testing.T) {
	st, err := NewStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	first := sampleState()
	if err := st.Save(first); err != nil {
		t.Fatal(err)
	}
	second := sampleState()
	second.Pass = 3
	second.PrevLarge = first.Large
	second.Large = []itemset.Itemset{itemset.New(1, 2, 5)}
	if err := st.Save(second); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Pass != 3 || len(got.Large) != 1 {
		t.Fatalf("loaded pass %d with %d large sets, want the newer checkpoint", got.Pass, len(got.Large))
	}
}

func TestLoadRejectsWrongNode(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	imp := sampleState()
	imp.Node = 5 // a file claiming another node's state
	if err := st.Save(imp); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err == nil {
		t.Fatal("checkpoint for node 5 accepted by node 3's store")
	}
}

// TestStrayTempFilesAreIgnored models the crash the chaos killpoint injects:
// a process dying between the temp write and the rename leaves *.tmp debris
// that must never shadow (or corrupt) the real checkpoint.
func TestStrayTempFilesAreIgnored(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleState()
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	// Torn temp file from a killed writer.
	if err := os.WriteFile(filepath.Join(dir, "node3-killed.tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stray temp file disturbed the committed checkpoint")
	}
}

func TestRemoveIsIdempotent(t *testing.T) {
	st, err := NewStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleState()); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(); err != nil {
		t.Fatalf("second remove: %v", err)
	}
	if got, err := st.Load(); err != nil || got != nil {
		t.Fatalf("after remove: %+v, %v", got, err)
	}
}

func TestDigestsBindCheckpointToWorkload(t *testing.T) {
	a := []itemset.Itemset{itemset.New(1, 2), itemset.New(3)}
	b := []itemset.Itemset{itemset.New(1, 2), itemset.New(4)}
	if DigestTxns(a) == DigestTxns(b) {
		t.Error("different partitions share a digest")
	}
	if DigestTxns(a) != DigestTxns(a) {
		t.Error("digest is not deterministic")
	}
	if DigestParams(4, 0.02, 800_000) == DigestParams(8, 0.02, 800_000) {
		t.Error("different params share a digest")
	}
}

// FuzzCheckpointLoad feeds arbitrary file bytes to Load, the one decoder of
// checkpoint files: a replacement process may find a torn, truncated or
// foreign file. Load must return an error or a state for its own node, and
// never panic.
func FuzzCheckpointLoad(f *testing.F) {
	seedDir := f.TempDir()
	for _, node := range []int{3, 5} {
		st, err := NewStore(seedDir, node)
		if err != nil {
			f.Fatal(err)
		}
		s := sampleState()
		s.Node = node
		if err := st.Save(s); err != nil {
			f.Fatal(err)
		}
		valid, err := os.ReadFile(st.Path())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))

	st, err := NewStore(f.TempDir(), 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		if err := os.WriteFile(st.Path(), file, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load()
		switch {
		case err != nil && got != nil:
			t.Fatalf("Load returned both a state and the error %v", err)
		case err == nil && got == nil:
			t.Fatal("Load of an existing file returned neither a state nor an error")
		case err == nil && got.Node != 3:
			t.Fatalf("node 3's store loaded node %d's state", got.Node)
		}
	})
}
