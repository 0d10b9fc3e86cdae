package main

// Example runs the program and checks its whole output: every input is
// fixed, so the output is too.
func Example() {
	main()
	// Output:
	// trace: 400 requests (340 reads, 60 writes)
	//
	// campus LAN (cheap messages) — SC(cc=0.05,cd=0.15)
	//   figures 1/2 say: SA
	//   measured SA  cost     537.0  (1.116x the offline optimum)
	//   measured DA  cost     605.2  (1.258x the offline optimum)
	//   recommendation: SA
	//
	// two-site WAN (expensive data) — SC(cc=0.3,cd=1.8)
	//   figures 1/2 say: DA
	//   measured DA  cost     938.3  (1.371x the offline optimum)
	//   measured SA  cost    1282.0  (1.874x the offline optimum)
	//   recommendation: DA
	//
	// mobile network (per-message billing) — MC(cc=0.2,cd=1)
	//   figures 1/2 say: DA
	//   measured DA  cost     212.4  (1.727x the offline optimum)
	//   measured SA  cost     468.0  (3.805x the offline optimum)
	//   recommendation: DA
	//
	// response-time check (shared bus, expected load 0.6 req/unit):
	//   SA  mean   1.63  p99   1.65  bus utilization   63%
	//   DA  mean   1.05  p99   2.05  bus utilization   27%
}
