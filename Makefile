# Tier-1 checks: everything `make check` runs must pass on every commit.
#
#   make check   lint + build + full test suite + escape-hatch audit
#                (every gate CI's lint matrix runs)
#   make lint    static analysis gate: gofmt (any file `gofmt -l` lists
#                fails it), go vet, staticcheck (when installed), and
#                cmd/nestedlint — the custom analyzer
#                suite enforcing the hot-path, determinism,
#                typed-address (addrspace: no unsanctioned GVA/GPA/HPA
#                crossings), and concurrency-discipline (epochguard /
#                sealedwrite / atomicmix: the epoch/generation
#                protocol of DESIGN.md §10–11) invariants (README.md,
#                "Static analysis"). One engine judges allocation
#                freedom statically: each package's hot region is
#                propagated from its own //nestedlint:hotpath
#                annotations (DESIGN.md §11); the AllocsPerRun tests
#                are the runtime check;
#                `go run ./cmd/nestedlint -analyzer=NAME[,NAME] -json ./...`
#                isolates a subset with machine-readable output
#   make escapes escape-hatch audit: inventories every
#                //nestedlint:ignore and //nestedlint:domaincast
#                directive and fails on stale ones (directives that no
#                longer suppress or whitelist anything)
#   make race    race-detector tier (small, targeted: the sweep engine,
#                the simulation core, the trace recorder, and the
#                lock-free concurrent translation layer — the
#                epoch-versioned ECPT generations and the multi-VM
#                serve engine — at short test settings)
#   make cover   full-suite coverage with a ratcheted minimum: fails if
#                total statement coverage drops below COVER_BASELINE;
#                writes cover.out for go tool cover -html inspection
#   make bench   the evaluation benchmarks, including the sweep-engine
#                sequential-vs-parallel scaling pair
#   make fuzz    short exploratory fuzz runs (the committed seed corpora
#                already replay under `make check`); every target runs
#                even when an earlier one fails, and the combined status
#                is the target's exit code
#   make profile runs the profiling recipe EXPERIMENTS.md quotes its
#                numbers from (Nested ECPTs, GUPS, 4KB pages) under the
#                CPU and heap profilers; inspect with
#                `go tool pprof cpu.pprof`
#   make endbench  the repository's benchmark (BENCHMARK.json): one
#                workload of benchmark/ through its own entry point,
#                `make endbench WORKLOAD=sim_gups_4k SEED=42` (add
#                TRACE=1 for the per-layer pass, JSON=a.jsonl to append
#                the record); `make endbench-compare A=a.jsonl B=b.jsonl`
#                judges two record files against the bounds. Named
#                endbench because `bench` is the root `go test -bench`
#   make benchcheck builds, vets and tests the nested benchmark module,
#                so a signature change it depends on fails here (CI runs
#                it) and not in the benchmark driver
#   make servesmoke short multi-VM throughput gate: nestedserve must
#                sustain a modest translations/sec floor (CI runs it
#                race-clean alongside)
#   make serveaudit audited sharded serve run: 48 guests, 2 churn
#                shards, every churn probe traced and replayed through
#                the serve-mode conformance auditor; any finding fails
#   make clismoke  both sweep CLIs end to end: nestedsim (audited,
#                traced) and experiments output (Figure 9 traced, its
#                shared set-ups forked) byte-identical at -parallel 1
#                and 2 (at the default seed and at -seed 7), and
#                -run-timeout failing a width-1 sweep

GO ?= go

.PHONY: check vet build test lint escapes race cover bench fuzz profile endbench endbench-compare benchcheck servesmoke serveaudit clismoke

check: lint build test escapes

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The lint tier builds first so nestedlint type-checks against fresh
# export data. staticcheck is optional tooling: run when present, never
# a silent no-op (the skip is printed).
lint: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l . lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	$(GO) run ./cmd/nestedlint ./...

# Escape hatches are standing claims; the audit fails when one goes
# stale (CI runs it in the lint matrix's concurrency suite). It is the
# only judge of a directive.
escapes: build
	$(GO) run ./cmd/nestedlint -escapes ./...

# The race detector slows the simulator by roughly an order of
# magnitude, so this tier runs only the packages with real concurrency
# (the runner engine, the simulations it fans out, the trace recorder
# the parallel walks publish into, and the lock-free concurrent
# translation layer: epoch-versioned ECPT snapshots and the multi-VM
# serve engine) and trims the long-running tests with -short.
race:
	$(GO) test -race -short -count=1 -parallel 8 ./internal/runner ./internal/sim \
		./internal/trace ./internal/traceaudit ./internal/ecpt ./internal/serve

# Coverage ratchet: total statement coverage may grow but not shrink.
# Raise COVER_BASELINE when a PR meaningfully improves coverage; never
# lower it to make a failure go away. (Measured 80.7% once the
# whole-program prover was retired; the half-point slack absorbs
# timing-dependent serve/churn paths.)
COVER_BASELINE ?= 80.2

cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total statement coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_BASELINE)% ratchet"; exit 1; }

bench:
	$(GO) test -bench=. -benchtime=1x .

# Run every fuzz target even when one fails (each is an independent
# probe of a different invariant), then fail with the combined status:
# a mid-list crash must not mask — or be masked by — the targets after
# it.
FUZZ_TARGETS = \
	FuzzAddrArithmetic:./internal/addr \
	FuzzTranslateRoundTrip:./internal/addr \
	FuzzCanonicalGVA:./internal/addr \
	FuzzHashStability:./internal/vhash \
	FuzzRNGStreams:./internal/vhash \
	FuzzTableViews:./internal/ecpt \
	FuzzTablesExhaustion:./internal/paging \
	FuzzHierarchyAgainstReference:./internal/cachesim \
	FuzzTLBAgainstReference:./internal/tlbsim \
	FuzzRadixAgainstReference:./internal/radix \
	FuzzTraceAudit:./internal/traceaudit \
	FuzzWalkBatch:./internal/sim \
	FuzzMachineResolve:./internal/sim \
	FuzzConfigNormalize:./internal/sim \
	FuzzServeAudit:./internal/serve
FUZZTIME ?= 30s

fuzz:
	@status=0; \
	for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "$(GO) test -fuzz=$$name -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s $$pkg"; \
		$(GO) test -fuzz=$$name -fuzztime=$(FUZZTIME) -fuzzminimizetime=5s $$pkg || status=1; \
	done; \
	exit $$status

# The run every profile share in EXPERIMENTS.md ("Profiling the
# simulator") was read from; that section names this target instead of
# repeating the flags, so the two cannot drift. The same
# -cpuprofile/-memprofile flags work on any cmd/experiments or
# cmd/nestedsim invocation.
PROFILE_RECIPE = -design nested-ecpt -app GUPS -scale 16 -warmup 100000 -accesses 1500000

profile:
	$(GO) run ./cmd/nestedsim $(PROFILE_RECIPE) \
		-cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "inspect with: $(GO) tool pprof cpu.pprof   (or mem.pprof)"

# The end-to-end benchmark BENCHMARK.json declares, through its own
# entry point (which builds benchmark/ into .bench_build/).
WORKLOAD ?= all
SEED ?= 42
TRACE ?= 0

endbench:
	bash benchmark/run.sh -workload $(WORKLOAD) -seed $(SEED) -trace $(TRACE) $(if $(JSON),-json $(JSON))

endbench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make endbench-compare A=parent.jsonl B=change.jsonl"; exit 2; }
	bash benchmark/run.sh -compare $(A) $(B)

# benchmark/ is its own module (replace nestedecpt => ../), outside
# `go build ./... && go test ./...`; this is the gate that keeps it
# compiling against internal/.
benchcheck:
	$(GO) -C benchmark build ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Throughput smoke: a short serve run must clear a deliberately modest
# floor (shared CI runners are slow and single-core; `make endbench
# WORKLOAD=serve_steady` measures the real rate). Keep the floor well
# under the VM-density acceptance rate so the gate catches collapses,
# not noise.
SERVE_MINRATE ?= 50000

servesmoke:
	$(GO) run ./cmd/nestedserve -vms 8 -duration 1s -minrate $(SERVE_MINRATE)

# Audited sharded serve run: the PR-10 acceptance configuration. Two
# churn shards publish generations for 48 guests while every worker's
# churn probes are traced; the run fails on any serve-audit finding or
# a throughput collapse. The JSONL trace (about 150 MB) lands under the
# ignored out/ directory, not the repository root (CI uploads its digest
# as an artifact for cross-run comparison).
SERVE_TRACE ?= out/serve-trace.jsonl

serveaudit:
	@mkdir -p $(dir $(SERVE_TRACE))
	$(GO) run ./cmd/nestedserve -vms 48 -shards 2 -duration 2s -audit \
		-trace $(SERVE_TRACE) -minrate $(SERVE_MINRATE)

# CLI smoke: the one sweep engine behind both CLIs, driven end to end in
# seconds. Stdout and the trace files must be byte-identical at
# -parallel 1 and 2 — Figure 9's technique breakdown included, whose
# Nested ECPT runs share one set-up and run on forks of it — and a 1ms
# -run-timeout must fail a width-1 sweep (every run's set-up alone
# outlasts it). Outputs land under the ignored out/ directory.
CLISMOKE_DIR ?= out/clismoke
NESTEDSIM_SMOKE = -design all -warmup 1000 -accesses 3000 -audit
EXPERIMENTS_SMOKE = -exp fig10 -quick -apps GUPS,BC -warmup 2000 -measure 6000
SEED_SMOKE = $(EXPERIMENTS_SMOKE) -seed 7
FIG9_SMOKE = -exp fig9 -quick -apps GUPS,BC -warmup 2000 -measure 6000

clismoke:
	@mkdir -p $(CLISMOKE_DIR)
	$(GO) build -o $(CLISMOKE_DIR)/ ./cmd/nestedsim ./cmd/experiments
	@for p in 1 2; do \
		echo "nestedsim $(NESTEDSIM_SMOKE) -parallel $$p; experiments $(EXPERIMENTS_SMOKE) -parallel $$p"; \
		$(CLISMOKE_DIR)/nestedsim $(NESTEDSIM_SMOKE) -parallel $$p \
			-trace $(CLISMOKE_DIR)/ns-$$p.jsonl > $(CLISMOKE_DIR)/ns-$$p.txt || exit 1; \
		$(CLISMOKE_DIR)/experiments $(EXPERIMENTS_SMOKE) -parallel $$p > $(CLISMOKE_DIR)/exp-$$p.txt || exit 1; \
		echo "experiments $(SEED_SMOKE) -parallel $$p"; \
		$(CLISMOKE_DIR)/experiments $(SEED_SMOKE) -parallel $$p > $(CLISMOKE_DIR)/seed-$$p.txt || exit 1; \
		echo "experiments $(FIG9_SMOKE) -parallel $$p -trace"; \
		$(CLISMOKE_DIR)/experiments $(FIG9_SMOKE) -parallel $$p \
			-trace $(CLISMOKE_DIR)/fig9-$$p.jsonl > $(CLISMOKE_DIR)/fig9-$$p.txt || exit 1; \
	done
	cmp $(CLISMOKE_DIR)/ns-1.txt $(CLISMOKE_DIR)/ns-2.txt
	cmp $(CLISMOKE_DIR)/ns-1.jsonl $(CLISMOKE_DIR)/ns-2.jsonl
	cmp $(CLISMOKE_DIR)/exp-1.txt $(CLISMOKE_DIR)/exp-2.txt
	cmp $(CLISMOKE_DIR)/seed-1.txt $(CLISMOKE_DIR)/seed-2.txt
	@if cmp -s $(CLISMOKE_DIR)/exp-1.txt $(CLISMOKE_DIR)/seed-1.txt; then \
		echo "experiments -seed 7 printed the seed-42 output"; exit 1; \
	fi
	cmp $(CLISMOKE_DIR)/fig9-1.txt $(CLISMOKE_DIR)/fig9-2.txt
	cmp $(CLISMOKE_DIR)/fig9-1.jsonl $(CLISMOKE_DIR)/fig9-2.jsonl
	@if $(CLISMOKE_DIR)/experiments $(EXPERIMENTS_SMOKE) -parallel 1 -run-timeout 1ms > /dev/null 2>&1; then \
		echo "experiments -parallel 1 -run-timeout 1ms exited 0; want a timeout failure"; exit 1; \
	fi
	@echo "clismoke: outputs identical at -parallel 1 and 2, -seed 7 differs from the default; -run-timeout fails a width-1 sweep"
