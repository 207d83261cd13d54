// Package trace is the walk-trace observability layer: a structured,
// zero-allocation-when-disabled event recorder the walkers, the
// elastic-cuckoo resize path, and the MMU caches emit typed events
// into. A trace makes an individual translation visible — every
// sequential step, every parallel probe group, every cache consult,
// every adaptive toggle — where the simulator's statistics only show
// aggregates.
//
// Traces serialize to deterministic JSONL (stable field order, one
// event per line), so a pinned-seed run produces byte-identical output
// at any parallelism, and replay tooling (internal/traceaudit) can
// verify the paper's structural invariants event by event.
package trace

import "nestedecpt/internal/addr"

// Kind enumerates the event types a trace can carry.
type Kind uint8

// The event kinds, in rough lifecycle order.
const (
	// KindInvalid is the zero Kind; a recorder never emits it, so a
	// parsed event of this kind marks a malformed trace.
	KindInvalid Kind = iota
	// KindWalkBegin opens one page walk (Walker, Now, GVA).
	KindWalkBegin
	// KindStepBegin opens one sequential step within a walk (Step,
	// Now at the step's start, and the address being resolved).
	KindStepBegin
	// KindProbe records one parallel probe group against an ECPT or a
	// radix table: Space/Size/Way identify the table and way filter,
	// Aux carries the number of line probes issued in parallel, and
	// the address fields carry the first probed line address.
	KindProbe
	// KindCacheHit / KindCacheMiss record one MMU-cache consult.
	KindCacheHit
	KindCacheMiss
	// KindCacheInsert records a fill into an MMU cache. The payload
	// address fields carry the inserted key/value in their own spaces,
	// which is what lets the auditor prove no guest-side structure
	// ever caches a host-physical value (§4.4).
	KindCacheInsert
	// KindRefill records a background CWT refill request (Size is the
	// CWT class, Aux the entry key).
	KindRefill
	// KindWalkEnd closes a walk: Now is the completion cycle, Aux the
	// critical-path latency, HPA/Size the resulting frame and page
	// size.
	KindWalkEnd
	// KindFault closes a walk that hit a missing mapping instead.
	KindFault
	// KindResizeStart / KindResizeEnd bracket one elastic resize of an
	// ECPT (Space selects guest/host, Size the table, Aux the new
	// lines-per-way / total migrated lines respectively).
	KindResizeStart
	KindResizeEnd
	// KindMigrateLine records one line rehashed out of the old
	// generation during an elastic resize (Aux is the line tag).
	KindMigrateLine
	// KindAdaptInterval records one §4.2 monitoring-interval boundary:
	// Aux/Aux2 carry the PTE and PMD window hit rates as float bits.
	KindAdaptInterval
	// KindAdaptToggle records the adaptive controller enabling
	// (Flag=true) or disabling (Flag=false) one CWC class.
	KindAdaptToggle
	// KindBatchBegin opens one batched walk group (WalkBatch): Aux is
	// the number of lanes the batch carries. Every KindWalkBegin /
	// KindWalkEnd / KindFault between the bracket events belongs to one
	// of those lanes.
	KindBatchBegin
	// KindBatchEnd closes a batch: Aux is the MSHR-overlapped batch
	// latency, which the auditor bounds between the slowest lane and the
	// sum of all lanes.
	KindBatchEnd
	// KindGenPublish records one concurrent-mode snapshot publication:
	// an ECPT sealed its generations and swapped the readers' view
	// pointer (Aux is the epoch the publish advanced to, Aux2 the
	// table's publish-generation counter). Never emitted in sequential
	// mode, so golden traces are unaffected.
	KindGenPublish
	// The serve lane (internal/serve): the events the serve-mode
	// conformance audit replays (traceaudit.AuditServe). Identity
	// packing uses PackIDs: Aux2 is worker<<32|vm for translate events
	// and shard<<32|vm for publish events.
	//
	// KindTranslateBegin opens one audited serve translation: GVA is
	// the probed address, Aux the VM's publish generation loaded after
	// the reader pinned its epoch.
	KindTranslateBegin
	// KindTranslateEnd closes it: Flag reports success, HPA/Size carry
	// the served frame on success, Aux the VM's publish generation
	// loaded before the reader unpinned.
	KindTranslateEnd
	// KindMapPublish records that a churn mutator's map of GVA→GPA→HPA
	// became reader-visible: Aux is the VM publish generation whose
	// snapshot first contains the mapping.
	KindMapPublish
	// KindUnmapPublish records that an unmap of GVA became
	// reader-visible: Aux is the VM publish generation whose snapshot
	// first lacks the mapping.
	KindUnmapPublish
	numKinds
)

// kindNames is the stable serialization vocabulary; order matches the
// Kind constants.
var kindNames = [numKinds]string{
	"Invalid", "WalkBegin", "StepBegin", "Probe", "CacheHit", "CacheMiss",
	"CacheInsert", "Refill", "WalkEnd", "Fault", "ResizeStart", "ResizeEnd",
	"MigrateLine", "AdaptInterval", "AdaptToggle", "BatchBegin", "BatchEnd",
	"GenPublish", "TranslateBegin", "TranslateEnd", "MapPublish",
	"UnmapPublish",
}

// String names the kind as it appears in JSONL.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "Kind(invalid)"
}

// Valid reports whether k is a kind a recorder can emit. KindInvalid
// is not: a parsed event of that kind marks a malformed trace.
func (k Kind) Valid() bool { return k > KindInvalid && k < numKinds }

// Space tags which side of the nested translation an event belongs to.
type Space uint8

// The spaces.
const (
	SpaceNone Space = iota
	SpaceGuest
	SpaceHost
	numSpaces
)

var spaceNames = [numSpaces]string{"", "guest", "host"}

// String names the space as it appears in JSONL.
func (s Space) String() string {
	if s < numSpaces {
		return spaceNames[s]
	}
	return "Space(invalid)"
}

// Valid reports whether s is in the serialization vocabulary.
func (s Space) Valid() bool { return s < numSpaces }

// WalkerKind identifies the design that emitted a walk.
type WalkerKind uint8

// The walker kinds (Table 1 designs that emit traces).
const (
	WalkerNone WalkerKind = iota
	WalkerNestedECPT
	WalkerNativeECPT
	WalkerNativeRadix
	WalkerNestedRadix
	WalkerHybrid
	numWalkers
)

var walkerNames = [numWalkers]string{
	"", "nested-ecpt", "ecpt", "radix", "nested-radix", "hybrid",
}

// String names the walker as it appears in JSONL.
func (w WalkerKind) String() string {
	if w < numWalkers {
		return walkerNames[w]
	}
	return "Walker(invalid)"
}

// Valid reports whether w is in the serialization vocabulary.
func (w WalkerKind) Valid() bool { return w < numWalkers }

// CacheID identifies the MMU structure a cache event touched.
type CacheID uint8

// The instrumented MMU caches.
const (
	CacheNone CacheID = iota
	// CacheGCWC is the guest cuckoo walk cache (guest-side: its
	// contents must never be host-physical, §4.4).
	CacheGCWC
	// CacheHCWC1 / CacheHCWC3 guard Steps 1 and 3 of the nested walk.
	CacheHCWC1
	CacheHCWC3
	// CacheSTC is the Shortcut Translation Cache (§4.1).
	CacheSTC
	// CacheCWC is the native ECPT design's single walk cache
	// (guest-side).
	CacheCWC
	// CachePWC is the (guest) radix page walk cache (guest-side).
	CachePWC
	// CacheNPWC is the nested PWC over the EPT.
	CacheNPWC
	// CacheNTLB is the nested TLB caching table-page gPA→hPA.
	CacheNTLB
	// CacheHCWC is the hybrid design's single host cuckoo walk cache.
	CacheHCWC
	numCaches
)

var cacheNames = [numCaches]string{
	"", "gCWC", "hCWC1", "hCWC3", "STC", "CWC", "PWC", "NPWC", "NTLB", "hCWC",
}

// String names the cache as it appears in JSONL.
func (c CacheID) String() string {
	if c < numCaches {
		return cacheNames[c]
	}
	return "Cache(invalid)"
}

// Valid reports whether c is in the serialization vocabulary.
func (c CacheID) Valid() bool { return c < numCaches }

// GuestSide reports whether the cache is a guest-side structure whose
// payloads must stay guest-space (§4.4: hPTE contents are never cached
// into guest-side walk structures).
func (c CacheID) GuestSide() bool {
	return c == CacheGCWC || c == CacheCWC || c == CachePWC
}

// NoSize marks an event that carries no page-size payload. It is
// outside the addr.PageSize value range.
const NoSize addr.PageSize = 0xFF

// WayAll mirrors ecpt.AllWays in the event vocabulary: a probe group
// with no way information (the paper's Size walk).
const WayAll int8 = -1

// WayNone marks an event with no way payload.
const WayNone int8 = -2

// Event is one fixed-size trace record. Every field is always present
// in the JSONL form, in declaration order, so serialized traces are
// byte-stable. The three address fields are typed: an event carries a
// value in the field of the space it was observed in and zero in the
// others, which keeps the addr discipline visible in the trace itself.
type Event struct {
	// Seq is the recorder-assigned sequence number, strictly
	// increasing within one trace.
	Seq uint64
	// Now is the core cycle the event was observed at; structural
	// table events (resize/migration) carry 0 — they are ordered by
	// Seq only.
	Now    uint64
	Kind   Kind
	Walker WalkerKind
	// Step is the sequential step within a walk: 1..3 for the nested
	// ECPT walk, the row number for radix-style walks, 0 for events
	// outside a step (background refill work, structural events).
	Step  uint8
	Space Space
	// Size is the page-size class the event touched, or NoSize.
	Size addr.PageSize
	// Way is the probed ECPT way, WayAll, or WayNone.
	Way   int8
	Cache CacheID
	GVA   addr.GVA
	GPA   addr.GPA
	HPA   addr.HPA
	// Aux / Aux2 carry kind-specific payloads (probe counts, latency,
	// float-bit hit rates, entry keys).
	Aux  uint64
	Aux2 uint64
	// Flag carries kind-specific booleans (background work, toggle
	// direction).
	Flag bool
}

// PackIDs packs two 32-bit identities (e.g. worker and VM, shard and
// VM) into one Aux payload; UnpackIDs inverts it.
func PackIDs(hi, lo uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// UnpackIDs splits a PackIDs payload back into its halves.
func UnpackIDs(v uint64) (hi, lo uint32) { return uint32(v >> 32), uint32(v) }

// SetAddr stores v in the event field matching its address space. It
// is how generic code (the elastic tables, the MMU caches) records a
// typed address without erasing its domain: the instantiated type
// picks the field. Instantiations over bare uint64 (domain-free test
// fixtures) leave the address fields zero.
//
//nestedlint:hotpath
func SetAddr[A addr.Addr](ev *Event, v A) {
	switch a := any(v).(type) {
	case addr.GVA:
		ev.GVA = a
	case addr.GPA:
		ev.GPA = a
	case addr.HPA:
		ev.HPA = a
	}
}

// SpaceOf reports the event space matching the instantiated address
// domain: host for HPA, guest for GVA/GPA, none for bare uint64.
func SpaceOf[A addr.Addr]() Space {
	var v A
	switch any(v).(type) {
	case addr.HPA:
		return SpaceHost
	case addr.GVA, addr.GPA:
		return SpaceGuest
	}
	return SpaceNone
}
