package main

// goldenQoS pins the QoS every detector reaches on the generated traces
// (replayTraceLen heartbeats of each preset, the preset's own seed):
// simulated time, so any change here is a change of algorithm or of trace
// generation, never noise. Regenerate with -print-golden after such a
// change, and say so.
var goldenQoS = map[string]goldenEntry{
	"WAN-JPCH/sfd":     {TDns: 867839007, MR: 0.0012809643260532173, QAP: 0.9969202709297919},
	"WAN-JPCH/chen":    {TDns: 345709892, MR: 0.02081567029836478, QAP: 0.9949302296981377},
	"WAN-JPCH/bertier": {TDns: 284898959, MR: 0.25399951591650516, QAP: 0.9908754952479385},
	"WAN-JPCH/phi":     {TDns: 393399651, MR: 0.015848923064880806, QAP: 0.9952087226205872},
	"WAN-1/sfd":        {TDns: 589344032, MR: 0.011246628528273395, QAP: 0.9997208571308147},
	"WAN-1/chen":       {TDns: 213242790, MR: 15.586269165672187, QAP: 0},
	"WAN-1/bertier":    {TDns: 206650301, MR: 0.40419701316764384, QAP: 0.9924181373648397},
	"WAN-1/phi":        {TDns: 191872757, MR: 0.1175297641709358, QAP: 0.9965002745953528},
}
