package btree

import "bytes"

// Sweep reaches a set of keys of one tree the way Section 3.1 prices it —
// CRT for retrieval, CMT for maintenance: t keys sought in ascending order
// cost the distinct nodes on their root-to-leaf paths, not t descents. It
// keeps the path of the last key sought — root to leaf, each node with its
// exclusive upper fence — and Seek descends again only from the deepest node
// still covering the next key, counting a page read for every node it newly
// enters and none for a node it is already in. One key costs Height()
// reads, as GetInto does.
//
// The handle Seek positions may write as well as read: the caller edits the
// record through it and flushes it before the next Seek. An insert or a
// delete inside a leaf leaves the path valid; a flush that splits a node
// does not, since the keys the path's nodes cover have moved. The tree
// counts its splits, and a Seek that finds the count moved since the path
// was built starts over at the root — every node of the new path counted
// again, as a fresh descent would be. A read sweep never sees the count move.
//
// A Sweep holds tree nodes, so it lives no longer than the lock its caller
// holds: Reset before the first Seek, Reset(nil) after the last.
type Sweep struct {
	t      *Tree
	path   []frame
	lo     []byte // inclusive lower fence of the path's leaf; nil at the leftmost
	splits uint64 // the tree's split count when the path was built
}

// frame is a node on the path and the separator above its last key, nil on
// the tree's right spine.
type frame struct {
	n  *node
	hi []byte
}

// Reset empties the path and points the sweep at t.
func (s *Sweep) Reset(t *Tree) {
	clear(s.path)
	s.t, s.path, s.lo = t, s.path[:0], nil
}

// Seek positions h on key's record and reports whether the key exists. Keys
// may come in any order: one below the leaf the sweep stands on starts over
// at the root, every page counted, so the answers are GetInto's whatever
// the order and only the page count rewards sorting.
func (s *Sweep) Seek(key []byte, h *Record) bool {
	t, path := s.t, s.path
	if s.splits != t.splits || s.lo != nil && bytes.Compare(key, s.lo) < 0 {
		path = path[:0]
	}
	for d := len(path); d > 0 && path[d-1].hi != nil && bytes.Compare(key, path[d-1].hi) >= 0; d-- {
		path = path[:d-1]
	}
	var f frame
	if len(path) > 0 {
		f = path[len(path)-1]
	} else {
		f, s.lo, s.splits = frame{n: t.enter(t.root)}, nil, t.splits
		path = append(path, f)
	}
	for !f.n.leaf {
		i := childIndex(f.n.keys, key)
		if i > 0 {
			s.lo = f.n.keys[i-1]
		}
		if i < len(f.n.keys) {
			f.hi = f.n.keys[i]
		}
		f.n = t.enter(f.n.kids[i])
		path = append(path, f)
	}
	s.path = path
	i, ok := leafIndex(f.n.keys, key)
	h.at(t, key, f.n, i, ok)
	return ok
}
