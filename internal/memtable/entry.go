package memtable

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Entry is one candidate itemset (canonical key) with its support count.
// A swapped-out hash line is a []Entry everywhere it travels: in the pagers'
// shadows, in the simulated stores, on the rmtp wire and in the spill file.
type Entry struct {
	Key   string
	Count int32
}

// Increment adds one to the count of key in entries, reporting whether the
// key was there. It is the one remote-update step: the simulated store, the
// rmtp server, the spill file and every pager shadow apply it.
func Increment(entries []Entry, key string) bool {
	for i := range entries {
		if entries[i].Key == key {
			entries[i].Count++
			return true
		}
	}
	return false
}

// AppendEntries serializes an entry list onto buf: a uvarint count, then per
// entry a uvarint key length, the key bytes and a varint count. It is the
// payload of rmtp's store and fetch frames and the record of the spill file.
func AppendEntries(buf []byte, entries []Entry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.AppendVarint(buf, int64(e.Count))
	}
	return buf
}

// DecodeEntries parses an entry list. The declared count is bounded by the
// bytes that follow it (an entry takes at least 2: key length and count), so
// a short payload claiming millions of entries fails before allocating.
func DecodeEntries(b []byte) ([]Entry, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, errors.New("memtable: bad entry count")
	}
	if n > uint64(len(b)-off)/2 {
		return nil, fmt.Errorf("memtable: entry count %d exceeds the %d-byte payload", n, len(b)-off)
	}
	out := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		kl, m := binary.Uvarint(b[off:])
		if m <= 0 || uint64(len(b)-off-m) < kl {
			return nil, fmt.Errorf("memtable: truncated key at entry %d", i)
		}
		off += m
		key := string(b[off : off+int(kl)])
		off += int(kl)
		c, m := binary.Varint(b[off:])
		if m <= 0 {
			return nil, fmt.Errorf("memtable: truncated count at entry %d", i)
		}
		off += m
		out = append(out, Entry{Key: key, Count: int32(c)})
	}
	return out, nil
}
