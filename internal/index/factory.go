package index

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/oodb"
	"repro/internal/schema"
)

// New builds the working structure of one organization over the subpath
// [a..b] of p, with index pages of pageSize bytes. The store is needed
// only by PX, which reads objects back through the store to materialize
// its path instantiations. NX and NONE are priced columns of the cost
// matrix only, as Section 6 incorporates them: the nested index answers
// starting-class queries alone and NONE is the absence of a structure, so
// New refuses both.
func New(st *oodb.Store, p *schema.Path, a, b int, org cost.Organization, pageSize int) (PathIndex, error) {
	switch org {
	case cost.MX:
		return NewMultiIndex(p, a, b, pageSize)
	case cost.MIX:
		return NewMultiInheritedIndex(p, a, b, pageSize)
	case cost.NIX:
		return NewNestedInheritedIndex(p, a, b, pageSize)
	case cost.PX:
		return NewPathIndexPX(st, p, a, b, pageSize)
	default:
		return nil, fmt.Errorf("index: organization %v has no working implementation", org)
	}
}
