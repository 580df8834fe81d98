// Command app is the non-internal caller of the unused fixture.
package main

import (
	"encoding/json"
	"fmt"

	"unusedfix/internal/lib"
)

func main() {
	b, _ := json.Marshal(lib.Celsius(21))
	fmt.Println(lib.Used(), lib.Total([]lib.Shape{lib.Square{Side: 2}}), string(b))
}
