package memtable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/transport"
)

func fpEntries(kv ...any) []Entry {
	var out []Entry
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Entry{Key: kv[i].(string), Count: int32(kv[i+1].(int))})
	}
	return out
}

func TestFilePagerRoundTrip(t *testing.T) {
	fp, err := NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()

	p := transport.NewRealProc()
	in := fpEntries("alpha", 3, "beta", 0, "a-much-longer-key", 7)
	loc, err := fp.StoreOut(p, 5, in)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Node >= 0 {
		t.Fatalf("file pager placed line at node %d, want a negative disk-tier marker", loc.Node)
	}
	got, err := fp.FetchIn(p, 5, loc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != in[0] || got[1] != in[1] || got[2] != in[2] {
		t.Fatalf("fetched %v, stored %v", got, in)
	}
	// A fetch releases the line.
	if _, err := fp.FetchIn(p, 5, loc); err == nil {
		t.Error("second fetch of a consumed line succeeded")
	}
}

func TestFilePagerUpdateIncrementsInPlace(t *testing.T) {
	fp, err := NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()

	p := transport.NewRealProc()
	loc, err := fp.StoreOut(p, 1, fpEntries("x", 10, "y", 20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fp.Update(p, 1, loc, "x"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := fp.FetchIn(p, 1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Count != 13 || got[1].Count != 20 {
		t.Fatalf("after updates: %v", got)
	}
	st := fp.Stats()
	if st.Stores != 1 || st.Updates != 3 || st.Fetches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestFilePagerResetDropsEverything(t *testing.T) {
	fp, err := NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()

	p := transport.NewRealProc()
	for i := 0; i < 4; i++ {
		if _, err := fp.StoreOut(p, i, fpEntries("k", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fp.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.FetchIn(p, 0, Location{Node: -1}); err == nil {
		t.Error("spilled line survived the reset")
	}
	// The file space is reclaimed and the pager is immediately reusable.
	loc, err := fp.StoreOut(p, 9, fpEntries("fresh", 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fp.FetchIn(p, 9, loc); err != nil || len(got) != 1 {
		t.Fatalf("post-reset round trip = %v, %v", got, err)
	}
	if st := fp.Stats(); st.Resets != 1 {
		t.Errorf("Resets = %d", st.Resets)
	}
}

func TestFilePagerCloseRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.dat")
	fp, err := NewFilePager(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fp.StoreOut(transport.NewRealProc(), 0, fpEntries("k", 1)); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file still on disk after close: %v", err)
	}
}

// resetSpy is a Pager that can be told to refuse stores and remembers resets.
type resetSpy struct {
	fail   bool
	resets int
}

func (s *resetSpy) StoreOut(p transport.Proc, line int, entries []Entry) (Location, error) {
	if s.fail {
		return Location{}, errors.New("spy: refusing")
	}
	return Location{Node: 0}, nil
}
func (s *resetSpy) FetchIn(p transport.Proc, line int, loc Location) ([]Entry, error) {
	return nil, errors.New("spy: nothing held")
}
func (s *resetSpy) Update(p transport.Proc, line int, loc Location, key string) error {
	return nil
}
func (s *resetSpy) Reset() error {
	s.resets++
	return nil
}

// TestFallbackPagerResetForwardsToBothTiers: a recovery reset must clear the
// remote tier AND the disk tier — spilled lines from the aborted pass would
// otherwise shadow the replay's fresh store-outs.
func TestFallbackPagerResetForwardsToBothTiers(t *testing.T) {
	primary := &resetSpy{fail: true}
	fp, err := NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	fb := &FallbackPager{Primary: primary, Secondary: fp}

	p := transport.NewRealProc()
	if _, err := fb.StoreOut(p, 1, fpEntries("k", 1)); err != nil {
		t.Fatal(err)
	}
	if fb.FallbackStores() != 1 {
		t.Fatalf("FallbackStores = %d", fb.FallbackStores())
	}
	if err := fb.Reset(); err != nil {
		t.Fatal(err)
	}
	if primary.resets != 1 {
		t.Errorf("primary saw %d resets, want 1", primary.resets)
	}
	if st := fp.Stats(); st.Resets != 1 {
		t.Errorf("secondary saw %d resets, want 1", st.Resets)
	}
	if _, err := fb.FetchIn(p, 1, Location{Node: -1}); err == nil {
		t.Error("spilled line survived the fallback reset")
	}
}

// TestFilePagerCorruptRecord: a spill record that no longer decodes makes
// FetchIn (and Update) fail instead of handing the table garbage counts.
func TestFilePagerCorruptRecord(t *testing.T) {
	fp, err := NewFilePager(filepath.Join(t.TempDir(), "spill.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()

	p := transport.NewRealProc()
	loc, err := fp.StoreOut(p, 4, fpEntries("x", 1, "y", 2))
	if err != nil {
		t.Fatal(err)
	}
	ext := fp.slots[4]
	junk := make([]byte, ext.len)
	for i := range junk {
		junk[i] = 0xff // a uvarint that never ends
	}
	if _, err := fp.f.WriteAt(junk, ext.off); err != nil {
		t.Fatal(err)
	}
	if err := fp.Update(p, 4, loc, "x"); err == nil {
		t.Error("Update of a corrupted spill record succeeded")
	}
	if got, err := fp.FetchIn(p, 4, loc); err == nil {
		t.Errorf("FetchIn of a corrupted spill record = %v, want an error", got)
	}
}
