let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words_beyond_probe f = minor_words_during f -. minor_words_during ignore
