package lustre

// Reset discards all files and rewinds the OST allocator, returning the FS
// to its post-NewFS state. The configuration and simulation binding are
// kept; stack pooling uses this to reuse one FS across evaluations.
func (fs *FS) Reset() {
	clear(fs.files)
	fs.last = nil
	fs.nextOST = 0
}
