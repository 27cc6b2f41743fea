package oodb

// Dense reports whether the set holds its OIDs in its bitmap.
func (s *OIDSet) Dense() bool { return s.dense }
