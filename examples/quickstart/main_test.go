package main

// Example runs the program and checks its whole output: every input is
// fixed, so the output is too.
func Example() {
	main()
	// Output:
	// schedule: w2 r4 r4 r3 w0 r4 r4 r4
	// cost model: SC(cc=0.3,cd=1.2), t = 2, initial scheme {0,1}
	//
	// SA allocation schedule: w2{0,1} r4{0} r4{0} r3{0} w0{0,1} r4{0} r4{0} r4{0}
	// SA cost: 22.60 (final scheme {0,1})
	//
	// DA allocation schedule: w2{0,2} R4{0} r4{4} R3{0} w0{0,1} R4{0} r4{4} r4{4}
	// DA cost: 21.10 (final scheme {0,1,4})
	//
	// offline optimum: 14.50 via w2{3,4} r4{4} r4{4} r3{3} w0{0,4} r4{4} r4{4} r4{4}
	//
	// SA ratio on this schedule: 1.559 (paper's worst-case bound 2.50)
	// DA ratio on this schedule: 1.455 (paper's worst-case bound 2.30)
	//
	// executed DA protocol accounting: 7cc+5cd+13io
	// executed DA protocol cost:      21.10
	// cluster allocation scheme:      {0,1,4}
}
