package persist

import (
	"io/fs"
	"os"
	"path/filepath"
)

// fileSystem is what a Store needs of the directory under it. Names are
// relative to that directory, and readDir lists them in no particular
// order. writeFile creates or truncates a file and returns once its
// contents are durable; syncDir makes the directory's renames and
// removals durable.
type fileSystem interface {
	writeFile(name string, data []byte) error
	rename(oldName, newName string) error
	remove(name string) error
	syncDir() error
	readDir() ([]string, error)
	readFile(name string) ([]byte, error)
}

// osFS is a directory of the host's file system.
type osFS string

func (d osFS) path(name string) string { return filepath.Join(string(d), name) }

func (d osFS) writeFile(name string, data []byte) error {
	f, err := os.OpenFile(d.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d osFS) rename(oldName, newName string) error {
	return os.Rename(d.path(oldName), d.path(newName))
}

func (d osFS) remove(name string) error { return os.Remove(d.path(name)) }

func (d osFS) syncDir() error {
	f, err := os.Open(string(d))
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (d osFS) readDir() ([]string, error) {
	ents, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (d osFS) readFile(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

// memFS is a directory held in memory, where every operation is durable
// as soon as it returns. It keeps the slices it is given and hands out
// the slices it keeps: the Store neither reuses a buffer it wrote nor
// modifies one it read.
type memFS map[string][]byte

func (m memFS) writeFile(name string, data []byte) error {
	m[name] = data
	return nil
}

func (m memFS) rename(oldName, newName string) error {
	data, ok := m[oldName]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldName, Err: fs.ErrNotExist}
	}
	delete(m, oldName)
	m[newName] = data
	return nil
}

func (m memFS) remove(name string) error {
	if _, ok := m[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m, name)
	return nil
}

func (memFS) syncDir() error { return nil }

func (m memFS) readDir() ([]string, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	return names, nil
}

func (m memFS) readFile(name string) ([]byte, error) {
	data, ok := m[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return data, nil
}
