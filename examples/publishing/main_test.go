package main

// Example runs the program and checks its whole output: every input is
// fixed, so the output is too.
func Example() {
	main()
	// Output:
	// Electronic publishing: authors at 0 and 1, readers at 2..9
	//
	// SA (read-one-write-all):
	//   archive        80 requests, cost    180.0, final scheme {0,1}
	//   front-page    994 requests, cost   2693.5, final scheme {0,1}
	//   politics      515 requests, cost   1376.2, final scheme {0,1}
	//   sports        381 requests, cost   1007.8, final scheme {0,1}
	//   total cost: 5257.5
	//
	// DA (dynamic allocation):
	//   archive        80 requests, cost    180.0, final scheme {0,1}
	//   front-page    994 requests, cost   1998.0, final scheme {0,1,2,3,4,5,6,7,8,9}
	//   politics      515 requests, cost    854.5, final scheme {0,1,2,3}
	//   sports        381 requests, cost    600.8, final scheme {0,1,7}
	//   total cost: 3633.2
	//
	// DA migrates each section's replicas to its actual readership —
	// sports ends up cached at site 7, politics at 2 and 3 — while SA
	// pays a round trip for every remote read, forever.
}
