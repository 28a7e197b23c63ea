// Command tool is the fixture's main package.
package main

import "fixture/lib"

func main() { lib.MainOnly() }
