package dataplane

// Test fixtures for the external test package, which drives the
// revalidator actor (package revalidator imports dataplane, so only
// package dataplane_test may import it back).
var (
	ACLSwitch      = aclSwitch
	TCPKey         = tcpKey
	StatefulSwitch = statefulSwitch
	Tup            = tup
)
