// Command tool references the fixture's production API.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/b"
)

func main() {
	fmt.Println(a.Used(), b.Describe(a.New()))
}
