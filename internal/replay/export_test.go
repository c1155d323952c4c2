package replay

// WriteAtomic is writeAtomic, for the store tests of package replay_test.
var WriteAtomic = writeAtomic
