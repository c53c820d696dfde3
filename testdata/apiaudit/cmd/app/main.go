package main

import (
	"fmt"

	"fixture/internal/a"
)

var verbose bool

func init() { verbose = len(a.Sorted(nil)) > 0 }

func main() {
	a.Used()
	fmt.Println(a.Sorted([]int{3, 1, 2}), a.Area(2), verbose)
}

func unusedFlag() bool { return verbose }
