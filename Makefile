.PHONY: build test check clean layout loc

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
