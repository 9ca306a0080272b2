package aa

// CompareValues exposes unseq-aa's pair order to the external order
// test (order_test.go), which needs the workload corpus.
var CompareValues = compareValues
