include Map.Make (Int)
