package main

// Example runs the program and checks its whole output: every input is
// fixed, so the output is too.
func Example() {
	main()
	// Output:
	// 6 earth stations, 120 images, reliability threshold t = 2
	// cost model SC(cc=0.3,cd=2)
	//
	// SA: fixed standing orders at 2 stations
	//   accounting 178cc+378cd+508io, cost 1317.4
	//   stations holding the newest image: {0,1} (>= 2 as required)
	//   durable: station 0 recovered image version 121 from disk
	//
	// DA: 1 permanent + temporary standing orders
	//   accounting 330cc+253cd+641io, cost 1246.0
	//   stations holding the newest image: {0,1,3,4} (>= 2 as required)
	//   durable: station 0 recovered image version 121 from disk
	//
	// With reads clustered between images, DA's temporary standing orders
	// turn repeat reads local; SA ships the image on every remote read.
}
