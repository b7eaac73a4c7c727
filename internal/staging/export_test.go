package staging

// RangeBytes is the striping granularity, for tests that need a file
// striped across several ranges.
const RangeBytes = rangeBytes
