// Command mergecost reports the gate-level hardware cost of one thread
// merge control: a paper scheme or any custom merge tree. The costs of
// all sixteen schemes (Figure 9) and their scaling with thread count
// (Figure 5) are figures: vliwsweep -figure fig9,fig5.
//
// Usage:
//
//	mergecost -scheme 2SC3
//	mergecost -scheme 'S(C(T0,T1,T2),T3)'   # any custom merge tree
package main

import (
	"flag"
	"fmt"
	"log"

	"vliwmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mergecost: ")
	scheme := flag.String("scheme", "", "scheme to cost: a paper scheme name or a tree expression")
	flag.Parse()
	if *scheme == "" {
		log.Fatal("-scheme is required (for every scheme's cost: vliwsweep -figure fig9)")
	}
	m := vliwmt.DefaultMachine()
	sc, err := vliwmt.Cost(m, *scheme)
	if err != nil {
		log.Fatal(err)
	}
	desc, _ := vliwmt.DescribeScheme(*scheme)
	fmt.Printf("%s = %s\ntransistors: %d\ngate delays: %d\n", sc.Scheme, desc, sc.Transistors, sc.GateDelays)
}
