package baseline

import "testing"

func TestDycoreCostShape(t *testing.T) {
	// The structural statement behind Table 3: per degree of freedom,
	// MPAS moves the most bytes, FV3 needs the widest halos, SE takes
	// the longest stable step of the explicit pair SE/MPAS.
	if !(MPASLike.BytesPerCell > FV3Like.BytesPerCell &&
		FV3Like.BytesPerCell > OursSE.BytesPerCell) {
		t.Error("byte-per-cell ordering violated")
	}
	if FV3Like.HaloWidth <= OursSE.HaloWidth {
		t.Error("FV3 should need wider halos than SE")
	}
	if MPASLike.DtFactor >= OursSE.DtFactor {
		t.Error("MPAS hexagons take shorter steps than SE")
	}
}
