.PHONY: all check test bench bench-json bench-record stream-smoke \
  staticdep-smoke obs-smoke autotune-smoke parcheck-smoke \
  perfdiff-smoke lint-gate lint-baseline clean

all:
	dune build @all

check: all
	dune runtest

test: check

bench:
	dune exec bench/main.exe

# codec numbers + out-of-core replay parity -> BENCH_stream.json,
# autotuning search results -> BENCH_autotune.json
bench-json:
	dune exec bench/main.exe -- stream autotune --json

# every bench suite -> BENCH_*.json, each appended to bench/history/
# for `polyprof perfdiff` to gate against
bench-record:
	dune exec bench/main.exe -- --json --record

# quick end-to-end check of the out-of-core path: record, decode,
# profile by replaying the file
stream-smoke:
	dune exec bin/polyprof_cli.exe -- trace stats backprop

# static dependence engine: one triangular and one witness-checked
# workload verbosely (each exits nonzero if its pruned profile diverges),
# then the whole-suite bench section, which fails on any pruned profile
# differing from its unpruned twin or on a suite-wide pruned fraction
# below 50%
staticdep-smoke:
	dune exec bin/polyprof_cli.exe -- staticdep trisolv --prune
	dune exec bin/polyprof_cli.exe -- staticdep seidel_wd --prune
	dune exec bench/main.exe -- staticdep --json

# autotuning beam search end to end: a tiny search on three workloads
# (the gemm interchange anchor plus the two fusion-chain winners), then
# the full-suite bench section, which fails if any shipped best schedule
# is not a candidate that passed the differential oracle
autotune-smoke:
	dune exec bin/polyprof_cli.exe -- autotune gemm --beam 2 --depth 1 --repeat 1
	dune exec bin/polyprof_cli.exe -- autotune mvt --beam 2 --depth 2 --repeat 1
	dune exec bin/polyprof_cli.exe -- autotune bicg --beam 2 --depth 2 --repeat 1
	dune exec bench/main.exe -- autotune --json

# parallelism certifier + race sanitizer end to end: whole-suite
# verdicts with the dynamic cross-check (exits nonzero on any
# E-parcheck-unsound), the seeded racy workload must yield a race
# witness (never a certificate), and the bench section fails unless at
# least 5 dims are certified and no sanitizer race hits a certified dim
parcheck-smoke:
	dune exec bin/polyprof_cli.exe -- parcheck
	@dune exec bin/polyprof_cli.exe -- parcheck par_racy \
	  | grep -q 'par-racy.c:5) depth 0: RACE' \
	  || { echo "FAIL: seeded race was not rejected with a witness"; exit 1; }
	dune exec bench/main.exe -- parcheck --json

# the sorted-unique (workload, diagnostic code) pairs of `polyprof lint
# --json`, which prints one compact JSON entry per line
LINT_PAIRS = dune exec bin/polyprof_cli.exe -- lint --json 2>/dev/null \
  | awk '{ if (match($$0, /"name":"[^"]*"/)) { \
      name = substr($$0, RSTART+8, RLENGTH-9); s = $$0; \
      while (match(s, /"code":"[^"]*"/)) { \
        print name, substr(s, RSTART+8, RLENGTH-9); \
        s = substr(s, RSTART+RLENGTH); } } }' \
  | sort -u

# lint regression gate: the lint pairs must not grow beyond the
# checked-in baseline (fixing a warning is fine; introducing a new one
# fails)
lint-gate:
	@$(LINT_PAIRS) > lint_current.txt; \
	new=$$(comm -13 test/lint_baseline.txt lint_current.txt); \
	if [ -n "$$new" ]; then \
	  echo "FAIL: new lint diagnostics not in test/lint_baseline.txt:"; \
	  echo "$$new"; exit 1; \
	else \
	  echo "lint-gate OK: no diagnostics beyond the baseline" \
	    "($$(wc -l < lint_current.txt) pairs)"; \
	fi; \
	rm -f lint_current.txt

# regenerate the baseline after intentionally changing lint output
lint-baseline:
	@$(LINT_PAIRS) > test/lint_baseline.txt; \
	echo "wrote test/lint_baseline.txt" \
	  "($$(wc -l < test/lint_baseline.txt) pairs)"

# self-profiling telemetry end to end: run one benchmark with spans and
# metrics on, export + validate the Chrome trace, then reproduce the
# paper's section-8 overhead table as JSON
obs-smoke:
	dune exec bin/polyprof_cli.exe -- telemetry backprop \
	  --trace-json telemetry_backprop.json \
	  --prom telemetry_backprop.prom --svg telemetry_backprop.svg
	dune exec bin/polyprof_cli.exe -- overhead backprop --json

# perf-regression sentinel end to end against checked-in fixtures: a
# seeded +30% wall-clock regression (25% band) must exit nonzero, an
# identical rerun must exit zero, and --report-only always exits zero;
# under the 2 ms wall-clock floor a 0.4 ms row that doubles is clean,
# while a 200 ms row that grows 50% is still flagged
perfdiff-smoke: all
	@set -e; \
	cli=$$(pwd)/_build/default/bin/polyprof_cli.exe; \
	$$cli perfdiff --history test/perfdiff/history \
	  test/perfdiff/ok/BENCH_smoke.json \
	  || { echo "FAIL: identical rerun flagged as a regression"; exit 1; }; \
	if $$cli perfdiff --history test/perfdiff/history \
	  test/perfdiff/regressed/BENCH_smoke.json; then \
	  echo "FAIL: seeded regression not caught"; exit 1; fi; \
	$$cli perfdiff --report-only --history test/perfdiff/history \
	  test/perfdiff/regressed/BENCH_smoke.json > /dev/null \
	  || { echo "FAIL: report-only mode exited nonzero"; exit 1; }; \
	$$cli perfdiff --history test/perfdiff/history \
	  test/perfdiff/ok/BENCH_floor.json \
	  || { echo "FAIL: a sub-millisecond change was flagged"; exit 1; }; \
	if $$cli perfdiff --history test/perfdiff/history \
	  test/perfdiff/regressed/BENCH_floor.json; then \
	  echo "FAIL: a 200 ms row growing 50% was not flagged"; exit 1; fi; \
	echo "perfdiff-smoke OK: seeded regression caught, identical rerun clean, report-only soft, sub-2 ms noise clean"

clean:
	dune clean
