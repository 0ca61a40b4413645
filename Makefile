.PHONY: build test check clean

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
