# Drop the bench sections whose numbers are wall-clock or machine-dependent
# (MICRO-BENCHMARKS, WALL-CLOCK); every other section is simulated
# and byte-identical from run to run.  Each section opens with a bar of '=',
# its title and another bar.
#   awk -f bench/cut_wallclock.awk bench_stdout.txt
/^=+$/ && !head { head = 1; bar = $0; next }
head == 1 {
  head = 2
  skip = ($0 ~ /^(MICRO-BENCHMARKS|WALL-CLOCK)/)
  if (!skip) print bar ORS $0
  next
}
head == 2 { head = 0; if (!skip) print; next }
!skip
