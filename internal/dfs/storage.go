package dfs

// Storage is the narrow file-system surface the MapReduce engine and
// its task bodies actually use. *FS implements it natively; the
// distributed backend (internal/distrib) implements it with an RPC
// proxy so worker processes read splits and write part files through
// the coordinator-owned FS.
type Storage interface {
	// Splits returns the input splits of a file, one per block.
	Splits(name string) ([]Split, error)
	// Block reads one block of a file by index.
	Block(name string, idx int) ([]byte, error)
	// ReadAll reads a whole file (side files, token orders).
	ReadAll(name string) ([]byte, error)
	// Create creates a new file for appending; the name must not exist.
	Create(name string) (RecordWriter, error)
	// Rename atomically renames a file (the single-winner task commit).
	Rename(oldName, newName string) error
	// Remove deletes a file.
	Remove(name string) error
	// Exists reports whether a file exists.
	Exists(name string) bool
	// List returns the names with the given prefix, sorted.
	List(prefix string) []string
}

// RecordWriter appends records to a storage file. Writers are not safe
// for concurrent use; each producing task writes its own file.
type RecordWriter interface {
	// Append adds one record; the bytes are copied.
	Append(record []byte) error
	// Close flushes and seals the file.
	Close() error
}

var _ Storage = (*FS)(nil)
