package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	a.Used()
	fmt.Println(a.Sorted([]int{3, 1, 2}), a.Area(2))
}
