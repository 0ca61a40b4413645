.PHONY: build test check clean layout loc same-outputs

# The verification bundle. `dune runtest` is the one gate harness: the
# alcotest suites (determinism across jobs=1/2 and interrupt+resume
# included), the CLI's golden outputs in test/expected, the trace and
# profile --validate runs, and the repo benchmark's pinned digests
# (benchmark/svt_bench.exe in smoke mode). See test/dune.
check: test

build:
	dune build @all

test: build
	dune runtest

clean:
	dune clean

# Where each lib module's code sits in the benchmark binary: the start
# address and byte size of every camlSvt_* unit, in link order. Code
# placement alone can move a workload (stream's work_per_s by ~13% when
# camlSvt_mem__* shifted 144 B), so compare this output across a change
# before crediting it with such a move.
layout:
	@dune build ./benchmark/svt_bench.exe
	@nm -n _build/default/benchmark/svt_bench.exe | awk ' \
	  function hex(s,  n, i) { n = 0; for (i = 1; i <= length(s); i++) \
	    n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1; return n } \
	  $$3 ~ /^camlSvt_.*\.code_begin$$/ { sub(/\.code_begin$$/, "", $$3); at[$$3] = $$1 } \
	  $$3 ~ /^camlSvt_.*\.code_end$$/ { sub(/\.code_end$$/, "", $$3); \
	    printf "%-40s 0x%s %7d\n", $$3, at[$$3], hex($$1) - hex(at[$$3]) }'

# Lines of OCaml (.ml + .mli) in each lib/ library and in total. The net
# LOC a change records in CHANGES.md is the difference of this output
# before and after it.
loc:
	@for d in lib/*/; do \
	  printf "%-12s %6d\n" "$$(basename $$d)" "$$(cat $$d*.ml $$d*.mli | wc -l)"; \
	done
	@printf "%-12s %6d\n" total "$$(cat lib/*/*.ml lib/*/*.mli | wc -l)"

# Whether this tree's outputs equal those of revision BASE: `make
# same-outputs BASE=<rev>`. BASE is cloned (a plain `git clone`, which
# leaves nothing in this repository's .git) and built under SAME_OUT.
# On both trees it collects the golden outputs `dune runtest` writes
# (test/*.output), the benchmark's smoke digests, and the digests and
# every count-unit metric in results.json of a traced `svt_bench
# --seconds 1` at seeds 1 and 2, then diffs them; on any difference the
# recipe exits 1 (so make fails). It takes about a minute and is not
# part of `dune runtest`.
SAME_OUT ?= $(CURDIR)/_build/same-outputs
BENCH = dune exec --root . --no-print-directory --display quiet \
  benchmark/svt_bench.exe --
# results.json -> "seed S WORKLOAD digest D" and "seed S WORKLOAD METRIC V"
COUNTS = awk -v s=$$seed 'BEGIN { RS = "[{},]" } { gsub(/[ \t\n]/, "") } \
  /^"(etc|tpcc|stream|fuzz|fleet)":$$/ { w = $$0; gsub(/[":]/, "", w) } \
  /^"digest":/ { sub(/^"digest":/, ""); print "seed", s, w, "digest", $$0 } \
  /^"[a-z0-9_.]+":$$/ { m = $$0; gsub(/[":]/, "", m) } \
  /^"value":/ { v = $$0; sub(/^"value":/, "", v) } \
  /^"unit":"count"$$/ { print "seed", s, w, m, v }'
same-outputs:
	@test -n "$(BASE)" || { echo "usage: make same-outputs BASE=<rev>" >&2; exit 2; }
	@rm -rf $(SAME_OUT) && mkdir -p $(SAME_OUT)
	@git clone --quiet --no-checkout . $(SAME_OUT)/base
	@git -C $(SAME_OUT)/base checkout --quiet $(BASE)
	@for side in base new; do \
	  if [ $$side = base ]; then dir=$(SAME_OUT)/base; else dir=$(CURDIR); fi; \
	  out=$(SAME_OUT)/$$side; \
	  ( cd $$dir && dune build --root . @runtest >/dev/null 2>&1; \
	    for f in _build/default/test/*.output; do echo "golden $$f"; cat $$f; done; \
	    $(BENCH) --smoke --out $$out-smoke | awk '$$1 == "digest" { print "smoke", $$0 }'; \
	    for seed in 1 2; do \
	      $(BENCH) --trace 1 --seconds 1 --seed $$seed --out $$out-$$seed >/dev/null; \
	      $(COUNTS) $$out-$$seed/results.json; \
	    done ) > $$out.txt; \
	done
	@if diff $(SAME_OUT)/base.txt $(SAME_OUT)/new.txt; then \
	  echo "same outputs as $(BASE): $$(grep -c '^golden ' $(SAME_OUT)/new.txt) golden outputs," \
	    "$$(grep -c '^smoke ' $(SAME_OUT)/new.txt) smoke digests," \
	    "$$(grep -c '^seed .* digest ' $(SAME_OUT)/new.txt) seeded digests," \
	    "$$(grep '^seed ' $(SAME_OUT)/new.txt | grep -vc ' digest ') count metrics"; \
	else echo "outputs differ from $(BASE)" >&2; exit 1; fi
