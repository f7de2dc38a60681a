// Command apiguard is a fixture for the root package's unused-export
// checker: it calls lib.Used and prints a lib.T, but never calls
// lib.Unused.
package main

import (
	"fmt"

	"apiguard/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.T{})
}
