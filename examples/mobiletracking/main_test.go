package main

// Example runs the program and checks its whole output: every input is
// fixed, so the output is too.
func Example() {
	main()
	// Output:
	// Mobile location tracking: base station = 0, user = 1, callers = 2..7
	// cost model MC(cc=0.2,cd=1) (per-message billing, I/O free)
	//
	// wireless cost per scenario (100 moves each):
	//       lookups per move     SA cost     DA cost    DA saves
	//                    0.5       164.8       172.4       -4.6%
	//                    2.0       298.0       285.2        4.3%
	//                    4.0       578.8       433.2       25.2%
	//                    8.0      1070.8       584.4       45.4%
	//                   16.0      1825.6       700.6       61.6%
	//
	// executing DA with base-station failure and recovery:
	//   request 108: base station down -> mode quorum (lookups still served)
	//   request 217: base station back, missed writes recovered -> mode DA
	//   served all 326 requests; final mode DA; wireless bill 566.0
}
