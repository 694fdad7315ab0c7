// Package ingest hardens the front of the reading pipeline. The paper's
// event-driven collector assumes a clean, strictly increasing one-second
// stream, but real RFID gateways deliver batches late, duplicated, and
// mis-stamped. This package makes that messiness explicit: a bounded,
// watermark-based reorder buffer accepts out-of-order and multi-second
// deliveries and flushes whole seconds in order, and every reading the
// pipeline refuses is classified by a typed error taxonomy and counted, so
// nothing is ever discarded silently.
package ingest

import (
	"fmt"

	"repro/internal/model"
)

// Kind classifies why the ingestion path refused a delivery or discarded a
// reading.
type Kind int

const (
	// KindLate marks input for a second the watermark has already closed:
	// the batch (or reading) arrived after its second was flushed.
	KindLate Kind = iota
	// KindDuplicate marks a re-delivery of a batch already buffered for the
	// same second (a gateway retransmission).
	KindDuplicate
	// KindMisstamped marks a reading stamped further ahead of its delivery's
	// batch second than the configured skew tolerance (a broken clock).
	KindMisstamped
	// KindInvalid marks a reading with no reader attached, or a whole
	// delivery refused because its batch second is below 1.
	KindInvalid
	// KindGap marks a second the watermark passed without any delivery at
	// all (lost batch). Gaps are observations, not drops: they are counted,
	// never returned as errors from Offer.
	KindGap
	// KindOversized marks a whole HTTP delivery refused before decoding
	// because its body exceeded the configured byte cap (the 413 path). The
	// reading count inside is unknown, so it is accounted at batch
	// granularity only.
	KindOversized
	// KindQuarantined marks readings dropped because the shard owning their
	// objects is quarantined after a WAL fail-stop (sharded engine only).
	// The rest of the delivery is accepted; healthy shards are unaffected.
	KindQuarantined
	// KindUnreachable marks readings dropped because the cluster peer owning
	// their objects was unreachable (DEAD, or a forward exhausted its
	// retries). The local partition of the delivery is still accepted.
	KindUnreachable
)

// ReadingKinds lists the kinds that classify dropped readings (KindGap is
// excluded: gaps count missing seconds, not readings). The telemetry layer
// iterates it to export one drop counter per kind.
var ReadingKinds = []Kind{KindLate, KindDuplicate, KindMisstamped, KindInvalid, KindQuarantined, KindUnreachable}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLate:
		return "late"
	case KindDuplicate:
		return "duplicate"
	case KindMisstamped:
		return "misstamped"
	case KindInvalid:
		return "invalid"
	case KindGap:
		return "gap"
	case KindOversized:
		return "oversized"
	case KindQuarantined:
		return "quarantined"
	case KindUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Error is the typed error returned by the Ingest family. Unless Rejected
// is set, the delivery was partially accepted and the error is a report of
// what was discarded, not a refusal.
type Error struct {
	// Kind is the dominant classification of the discarded input.
	Kind Kind
	// Time is the offending delivery's batch second.
	Time model.Time
	// Watermark is the newest second already closed when the delivery
	// arrived.
	Watermark model.Time
	// Dropped is the number of raw readings discarded by this delivery.
	Dropped int
	// Rejected reports whether the whole delivery was refused (true for a
	// late batch) rather than partially accepted.
	Rejected bool
}

// Error implements the error interface.
func (e *Error) Error() string {
	verb := "dropped"
	if e.Rejected {
		verb = "rejected"
	}
	return fmt.Sprintf("ingest: %s batch t=%d (watermark %d): %d readings %s",
		e.Kind, e.Time, e.Watermark, e.Dropped, verb)
}

// Drops is the explicit accounting of everything the ingestion path
// discarded or observed going missing. A healthy pipeline keeps
// offered == accepted + Readings() + pending at all times.
type Drops struct {
	// LateBatches counts whole deliveries refused because their batch
	// second was already closed by the watermark.
	LateBatches int
	// LateReadings counts readings in late batches plus readings stamped
	// before the watermark inside otherwise acceptable deliveries.
	LateReadings int
	// DuplicateDeliveries counts retransmitted sub-batches dropped by the
	// reorder buffer's fingerprint dedup.
	DuplicateDeliveries int
	// DuplicateReadings counts the readings inside those retransmissions.
	DuplicateReadings int
	// MisstampedReadings counts readings whose time stamp disagrees with
	// their second (beyond the skew tolerance at the reorder buffer, or
	// != t at the collector).
	MisstampedReadings int
	// InvalidReadings counts readings with no reader attached, and the
	// readings of deliveries refused for a batch second below 1.
	InvalidReadings int
	// GapSeconds counts seconds the watermark passed with no delivery at
	// all — batches lost upstream of the system.
	GapSeconds int
	// OversizedBatches counts whole HTTP deliveries refused undecoded
	// because the body exceeded the ingest byte cap (the 413 path). Their
	// reading counts are unknowable, so like LateBatches this is batch-level
	// accounting and excluded from Readings().
	OversizedBatches int
	// QuarantinedReadings counts readings dropped because their objects'
	// shard was quarantined after a WAL fail-stop. Router-owned and volatile
	// across a crash (like OversizedBatches): the readings never reach any
	// WAL, so the count cannot be recovered from one.
	QuarantinedReadings int
	// UnreachableReadings counts readings dropped because the cluster peer
	// owning their objects was unreachable when the forward gave up.
	// Forwarder-owned and volatile, like QuarantinedReadings.
	UnreachableReadings int
}

// Readings returns the total number of raw readings dropped.
func (d Drops) Readings() int {
	return d.LateReadings + d.DuplicateReadings + d.MisstampedReadings +
		d.InvalidReadings + d.QuarantinedReadings + d.UnreachableReadings
}

// Of returns the reading count (or, for KindGap, the second count)
// attributed to one taxonomy kind.
func (d Drops) Of(k Kind) int {
	switch k {
	case KindLate:
		return d.LateReadings
	case KindDuplicate:
		return d.DuplicateReadings
	case KindMisstamped:
		return d.MisstampedReadings
	case KindInvalid:
		return d.InvalidReadings
	case KindGap:
		return d.GapSeconds
	case KindOversized:
		return d.OversizedBatches
	case KindQuarantined:
		return d.QuarantinedReadings
	case KindUnreachable:
		return d.UnreachableReadings
	default:
		return 0
	}
}

// Merge adds another accounting into d.
func (d *Drops) Merge(o Drops) {
	d.LateBatches += o.LateBatches
	d.LateReadings += o.LateReadings
	d.DuplicateDeliveries += o.DuplicateDeliveries
	d.DuplicateReadings += o.DuplicateReadings
	d.MisstampedReadings += o.MisstampedReadings
	d.InvalidReadings += o.InvalidReadings
	d.GapSeconds += o.GapSeconds
	d.OversizedBatches += o.OversizedBatches
	d.QuarantinedReadings += o.QuarantinedReadings
	d.UnreachableReadings += o.UnreachableReadings
}
