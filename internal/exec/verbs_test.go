package exec

import "repro/internal/oodb"

// The exec gates write through the single-entry verbs the set had before
// Apply; each is a batch of one (UpdateBatch a batch of updates) here.

func (s *IndexSet) InsertInto(st *oodb.Store, class string, attrs map[string][]oodb.Value) (oodb.OID, error) {
	w := []Write{{Kind: WriteInsert, Class: class, Attrs: attrs}}
	err := s.Apply(st, w, nil, nil)[0]
	return w[0].OID, err
}

func (s *IndexSet) UpdateIn(st *oodb.Store, oid oodb.OID, attrs map[string][]oodb.Value) error {
	return s.Apply(st, []Write{{OID: oid, Attrs: attrs}}, nil, nil)[0]
}

func (s *IndexSet) UpdateBatch(st *oodb.Store, ups []Update) []error {
	return s.Apply(st, ups, nil, nil)
}

func (s *IndexSet) DeleteFrom(st *oodb.Store, oid oodb.OID) error {
	return s.Apply(st, []Write{{Kind: WriteDelete, OID: oid}}, nil, nil)[0]
}
