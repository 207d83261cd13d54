package traceaudit

import (
	"strings"
	"testing"

	"nestedecpt/internal/addr"
	"nestedecpt/internal/trace"
)

// Synthetic serve-lane streams: each helper builds the minimal event
// sequence for one scenario, and each test checks exactly which rule
// fires (or that none does). Seq is assigned in slice order, like a
// recorder would.

const (
	pageA addr.GVA = 0x7000_0000_0000
	pageB addr.GVA = 0x7000_0000_1000
	hpaX  addr.HPA = 0x10000
	hpaY  addr.HPA = 0x20000
)

// sseq stamps ascending Seq onto evs (variadic sugar over seqd).
func sseq(evs ...trace.Event) []trace.Event {
	return seqd(evs)
}

func mapPub(shard, vm uint32, va addr.GVA, hpa addr.HPA, gen uint64) trace.Event {
	return trace.Event{
		Kind: trace.KindMapPublish, GVA: va, HPA: hpa,
		Aux: gen, Aux2: trace.PackIDs(shard, vm), Flag: true, Size: addr.Page4K,
	}
}

func unmapPub(shard, vm uint32, va addr.GVA, gen uint64) trace.Event {
	return trace.Event{
		Kind: trace.KindUnmapPublish, GVA: va,
		Aux: gen, Aux2: trace.PackIDs(shard, vm),
	}
}

func begin(worker, vm uint32, va addr.GVA, pin uint64) trace.Event {
	return trace.Event{
		Kind: trace.KindTranslateBegin, GVA: va,
		Aux: pin, Aux2: trace.PackIDs(worker, vm),
	}
}

func end(worker, vm uint32, va addr.GVA, gen uint64, hpa addr.HPA, ok bool) trace.Event {
	ev := trace.Event{
		Kind: trace.KindTranslateEnd, GVA: va,
		Aux: gen, Aux2: trace.PackIDs(worker, vm), Flag: ok,
	}
	if ok {
		ev.HPA = hpa
		ev.Size = addr.Page4K
	}
	return ev
}

// wantRules audits events and checks the findings' rules, in order.
func wantRules(t *testing.T, events []trace.Event, spec ServeSpec, rules ...string) []Violation {
	t.Helper()
	got := AuditServe(events, spec)
	if len(got) != len(rules) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(rules), joinViolations(got))
	}
	for i, r := range rules {
		if got[i].Rule != r {
			t.Errorf("finding %d rule = %q, want %q (%s)", i, got[i].Rule, r, got[i])
		}
	}
	return got
}

func joinViolations(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString("  " + v.String() + "\n")
	}
	return b.String()
}

func TestAuditServeCleanLifecycle(t *testing.T) {
	// Map at gen 1, serve it inside [1,1], unmap at gen 2, fault
	// inside [2,2]: nothing to flag, in either mode.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 1, hpaX, true),
		unmapPub(0, 0, pageA, 2),
		begin(0, 0, pageA, 2),
		end(0, 0, pageA, 2, 0, false),
	)
	wantRules(t, events, ServeSpec{})
	wantRules(t, events, ServeSpec{Strict: true})
}

func TestAuditServeStaleTranslation(t *testing.T) {
	// The unmap published at gen 2; a reader pinned at gen 3 still got
	// a successful translation — the headline staleness violation.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(0, 0, pageA, 2),
		begin(0, 0, pageA, 3),
		end(0, 0, pageA, 3, hpaX, true),
	)
	wantRules(t, events, ServeSpec{Strict: true}, "stale-translation")
	wantRules(t, events, ServeSpec{}, "stale-translation")
}

func TestAuditServeWindowSpansUnmap(t *testing.T) {
	// A translation whose window [1,2] straddles the unmap publish may
	// legitimately succeed (it read the gen-1 snapshot) or fault (the
	// gen-2 one). Neither is a finding.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(0, 0, pageA, 2),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 2, hpaX, true),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 2, 0, false),
	)
	wantRules(t, events, ServeSpec{Strict: true})
}

func TestAuditServeLiveSlack(t *testing.T) {
	// Window [1,1] but the serve matches the gen-2 remap: in a live
	// run the view store can beat the counter store by one generation,
	// so non-Strict accepts it and Strict flags it.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(0, 0, pageA, 2),
		mapPub(0, 0, pageA, hpaY, 2),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 1, hpaY, true),
	)
	wantRules(t, events, ServeSpec{})
	wantRules(t, events, ServeSpec{Strict: true}, "pa-mismatch")
}

func TestAuditServePAMismatch(t *testing.T) {
	// Served frame matches no publish in the window: the page was
	// remapped (same gen window) but the reader returned a frame from
	// prehistory.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(0, 0, pageA, 2),
		mapPub(0, 0, pageA, hpaY, 3),
		begin(0, 0, pageA, 3),
		end(0, 0, pageA, 3, hpaX, true),
	)
	wantRules(t, events, ServeSpec{Strict: true}, "pa-mismatch")
}

func TestAuditServeLostTranslation(t *testing.T) {
	// Mapped across the whole window yet the reader faulted: only
	// Strict mode (deterministic replay) treats that as a finding.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 1, 0, false),
	)
	wantRules(t, events, ServeSpec{Strict: true}, "lost-translation")
	wantRules(t, events, ServeSpec{})
}

func TestAuditServeGenWindowInverted(t *testing.T) {
	// End generation below the pin generation: the monotone counter
	// ran backwards for this reader.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		begin(0, 0, pageA, 5),
		end(0, 0, pageA, 4, hpaX, true),
	)
	wantRules(t, events, ServeSpec{}, "gen-window")
}

func TestAuditServePublishMonotone(t *testing.T) {
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 3),
		unmapPub(0, 0, pageA, 2),     // generation went backwards
		mapPub(0, 0, pageB, hpaY, 0), // generation zero is reserved
	)
	wantRules(t, events, ServeSpec{}, "publish-monotone", "publish-monotone")
}

func TestAuditServePublishOwner(t *testing.T) {
	// VM 0's second publish comes from shard 1: the static vm % shards
	// partition was violated.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(1, 0, pageA, 2),
	)
	wantRules(t, events, ServeSpec{}, "publish-owner")
}

func TestAuditServePublishAlternation(t *testing.T) {
	events := sseq(
		unmapPub(0, 0, pageA, 1), // unmap before any map
		mapPub(0, 0, pageB, hpaX, 2),
		mapPub(0, 0, pageB, hpaY, 3), // double map
	)
	wantRules(t, events, ServeSpec{}, "publish-alternation", "publish-alternation")
}

func TestAuditServePairRules(t *testing.T) {
	// Worker 0: a begin abandoned by a second begin. Worker 1: an end
	// with no begin. Worker 2: an end on a different page than its
	// begin. Worker 3: a begin left open at end of trace.
	events := sseq(
		begin(0, 0, pageA, 1),
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 1, 0, false),
		end(1, 0, pageA, 1, 0, false),
		begin(2, 0, pageA, 1),
		end(2, 0, pageB, 1, 0, false),
		begin(3, 0, pageB, 1),
	)
	got := AuditServe(events, ServeSpec{})
	if len(got) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(got), joinViolations(got))
	}
	for _, v := range got {
		if v.Rule != "serve-pair" {
			t.Errorf("rule = %q, want serve-pair (%s)", v.Rule, v)
		}
	}
}

func TestAuditServeUnknownPrehistory(t *testing.T) {
	// The window opens before the page's first recorded publish (a
	// truncated trace): the audit must stay quiet, success or fault.
	events := sseq(
		begin(0, 0, pageA, 1),
		end(0, 0, pageA, 1, hpaX, true),
		mapPub(0, 0, pageA, hpaX, 5),
	)
	wantRules(t, events, ServeSpec{Strict: true})
}

func TestAuditServeNeverChurnedPage(t *testing.T) {
	// Sampled workload translations touch pages with no publish
	// history at all; they are out of the churn audit's scope.
	events := sseq(
		begin(0, 0, pageB, 0),
		end(0, 0, pageB, 0, hpaY, true),
	)
	wantRules(t, events, ServeSpec{Strict: true})
}

func TestAuditServeIgnoresWalkLane(t *testing.T) {
	// A mixed trace: walk-lane events interleaved with a clean serve
	// lane must not confuse the serve audit.
	events := sseq(
		trace.Event{Kind: trace.KindWalkBegin, GVA: pageA},
		mapPub(0, 0, pageA, hpaX, 1),
		trace.Event{Kind: trace.KindProbe, Aux: 4},
		begin(0, 0, pageA, 1),
		trace.Event{Kind: trace.KindWalkEnd, HPA: hpaX},
		end(0, 0, pageA, 1, hpaX, true),
	)
	wantRules(t, events, ServeSpec{Strict: true})
}

func TestAuditServeOrderedBySeq(t *testing.T) {
	// Findings from both passes must come back merged in Seq order:
	// here a publish-side finding lands after a translate-side one in
	// the stream.
	events := sseq(
		mapPub(0, 0, pageA, hpaX, 1),
		unmapPub(0, 0, pageA, 2),
		begin(0, 0, pageA, 3),
		end(0, 0, pageA, 3, hpaX, true), // seq 4: stale-translation
		mapPub(1, 0, pageB, hpaY, 3),    // seq 5: publish-owner
	)
	got := wantRules(t, events, ServeSpec{}, "stale-translation", "publish-owner")
	if got[0].Seq >= got[1].Seq {
		t.Errorf("findings not in Seq order: %d then %d", got[0].Seq, got[1].Seq)
	}
}
