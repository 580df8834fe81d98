package main

import "variants/internal/tier"

func main() { println(tier.Sum([]float32{1, 2})) }
