package memtable

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/transport"
)

// FilePager spills hash lines to a real local file — the disk tier of the
// TCP pager (remotemem.TCPPager.SpillTo) on the live TCP path, where the
// simulator's virtual-cost SwapPager cannot be used, and on its own the
// out-of-core miner's spill. The file is append-only: a fetch or update
// abandons the line's old extent, which is fine for a spill that is dropped
// (or Reset) when the pass ends. Lines are placed at Location{Node: -1}, so
// a FallbackPager routes later operations back here.
type FilePager struct {
	mu    sync.Mutex
	f     *os.File
	end   int64
	slots map[int]fileExtent

	stats FilePagerStats
}

type fileExtent struct {
	off int64
	len int32
}

// FilePagerStats are cumulative operation counters.
type FilePagerStats struct {
	Stores       uint64
	Fetches      uint64
	Updates      uint64
	Resets       uint64
	BytesWritten uint64
}

// NewFilePager creates (truncating) the spill file at path.
func NewFilePager(path string) (*FilePager, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("memtable: spill file: %w", err)
	}
	return &FilePager{f: f, slots: make(map[int]fileExtent)}, nil
}

// Stats returns a snapshot of the operation counters.
func (fp *FilePager) Stats() FilePagerStats {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return fp.stats
}

// Close closes and removes the spill file.
func (fp *FilePager) Close() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	name := fp.f.Name()
	err := fp.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// StoreOut appends the line as one AppendEntries record (the payload codec
// rmtp ships lines in) and records its extent.
func (fp *FilePager) StoreOut(p transport.Proc, line int, entries []Entry) (Location, error) {
	buf := AppendEntries(nil, entries)
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if err := fp.append(line, buf); err != nil {
		return Location{}, err
	}
	fp.stats.Stores++
	return Location{Node: -1, Slot: line}, nil
}

// FetchIn reads the line back and releases its extent.
func (fp *FilePager) FetchIn(p transport.Proc, line int, loc Location) ([]Entry, error) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	entries, err := fp.read(line)
	if err != nil {
		return nil, err
	}
	delete(fp.slots, line)
	fp.stats.Fetches++
	return entries, nil
}

// Update increments a key's count in place (read-modify-append).
func (fp *FilePager) Update(p transport.Proc, line int, loc Location, key string) error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	entries, err := fp.read(line)
	if err != nil {
		return err
	}
	Increment(entries, key)
	if err := fp.append(line, AppendEntries(nil, entries)); err != nil {
		return err
	}
	fp.stats.Updates++
	return nil
}

// Reset discards every spilled line and reclaims the file space.
func (fp *FilePager) Reset() error {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if err := fp.f.Truncate(0); err != nil {
		return fmt.Errorf("memtable: spill truncate: %w", err)
	}
	fp.end = 0
	clear(fp.slots)
	fp.stats.Resets++
	return nil
}

func (fp *FilePager) append(line int, buf []byte) error {
	if _, err := fp.f.WriteAt(buf, fp.end); err != nil {
		return fmt.Errorf("memtable: spill write: %w", err)
	}
	fp.slots[line] = fileExtent{off: fp.end, len: int32(len(buf))}
	fp.end += int64(len(buf))
	fp.stats.BytesWritten += uint64(len(buf))
	return nil
}

func (fp *FilePager) read(line int) ([]Entry, error) {
	ext, ok := fp.slots[line]
	if !ok {
		return nil, fmt.Errorf("memtable: line %d not spilled", line)
	}
	buf := make([]byte, ext.len)
	if _, err := fp.f.ReadAt(buf, ext.off); err != nil {
		return nil, fmt.Errorf("memtable: spill read: %w", err)
	}
	entries, err := DecodeEntries(buf)
	if err != nil {
		return nil, fmt.Errorf("memtable: spill record of line %d: %w", line, err)
	}
	return entries, nil
}

var (
	_ Pager    = (*FilePager)(nil)
	_ Resetter = (*FilePager)(nil)
	_ Resetter = (*FallbackPager)(nil)
)
