package dbft

import (
	"testing"

	"repro/internal/protocol/binarytest"
)

// The configuration, snapshot-codec, decoder and delivery-path checks of the
// two-step binary engine, run with this package's rules (see package binarytest).
// The seed corpora of the fuzz targets are in testdata/fuzz.

// dbft is safe for any n and t, so only the shared checks refuse.
func TestConfigValidate(t *testing.T) { binarytest.ConfigValidate(t, &Rules, false) }

func TestSnapshotCodecRoundTrip(t *testing.T)    { binarytest.SnapshotCodecRoundTrip(t, &Rules) }
func TestSnapshotCanonicalEncoding(t *testing.T) { binarytest.SnapshotCanonicalEncoding(t, &Rules) }
func TestRestoreIsolation(t *testing.T)          { binarytest.RestoreIsolation(t, &Rules) }
func TestDecodeSnapshotRejectsJunk(t *testing.T) { binarytest.DecodeSnapshotRejectsJunk(t, &Rules) }
func TestDecodeSnapshotIsInjective(t *testing.T) { binarytest.DecodeSnapshotIsInjective(t, &Rules) }
func TestDecodeSnapshotRejectsOutsideSenders(t *testing.T) {
	binarytest.DecodeSnapshotRejectsOutsideSenders(t, &Rules)
}
func TestDecodeSnapshotRefusesRetiredMessageForms(t *testing.T) {
	binarytest.DecodeSnapshotRefusesRetiredMessageForms(t, &Rules)
}
func TestDeliverAllocs(t *testing.T) { binarytest.DeliverAllocs(t, &Rules) }
func TestDeliverIgnoredCreatesNoRound(t *testing.T) {
	binarytest.DeliverIgnoredCreatesNoRound(t, &Rules)
}
func FuzzSnapshotDecode(f *testing.F) { binarytest.FuzzSnapshotDecode(f, &Rules) }
func FuzzMessageDecode(f *testing.F)  { binarytest.FuzzMessageDecode(f, &Rules) }
