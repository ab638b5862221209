package models

import "repro/internal/ta"

// BVBroadcast builds the threshold automaton of the binary value broadcast
// (Fig. 2). Locations encode which values a correct process has broadcast
// and delivered (Table 1):
//
//	V0,V1: initial, holding input 0 resp. 1
//	B0,B1: broadcast own value
//	B01:   broadcast both values, delivered none
//	C0,C1: delivered own value (added it to contestants)
//	CB0:   delivered 0, broadcast both;  CB1 symmetric
//	C01:   delivered both values
//
// Shared variables b0, b1 count the BV messages sent by correct processes;
// the f messages Byzantine processes may contribute are folded into the
// guards (a threshold of t+1 received messages becomes b_v >= t+1-f sent by
// correct processes).
func BVBroadcast() *ta.TA { return mustParse("bvbroadcast.ta") }
